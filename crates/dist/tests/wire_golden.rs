//! Pinned bytes of the coordinator <-> worker payloads.
//!
//! One value of every `Request` and `Resp` variant (and of every variant
//! of the records they embed; see `samples`), next to the hex the
//! hand-written per-type encoders produced before the payloads moved
//! onto `nir::codec::Wire`. A `dist` worker and its coordinator are two
//! processes that may be two builds: a change to any of these strings is
//! a protocol change and needs a `PROTO_VERSION` (or `CKPT_VERSION`) bump.

mod samples;

use dist::proto::{
    decode_hello, decode_req, decode_resp, encode_hello, encode_req, encode_resp, Hello,
    PROTO_VERSION,
};
use samples::{requests, responses};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

const REQUEST_HEX: &[&str] = &[
    "01040000000700000004000000deadbeef010807060504030201000000000000e03f000000000000d03f000000000000c03f000000000000b03f000000000000e83f000000000000d83f000000000000c83f000000000000ec3f000000000000dc3f000000000000d43f000000000000ee3f51c3000000000000224e00000000000005000000eb03000000000000010300000010000000840300000000000000000000000004404d00000000000000010900000000000000",
    "01020000000000000000000000000000",
    "0200093d0000000000",
    "03020000c03f",
    "04",
    "05",
    "060200000008000000000000001000000000000000",
    "07010000000300000000000000030000000000003f000000c06f12833a",
    "08",
    "0900",
    "0901",
    "0902",
    "0903",
    "0e",
    "0f6300000000000000010300000001000000010000000003000000020304",
    "100600000000000000",
    "11",
    "120101fcffffffffffffff0a0000000000000007000000000000000300000000000000",
    "1200010000000000000002000000000000000300000000000000",
    "13",
];

const RESPONSE_HEX: &[&str] = &[
    "01",
    "0200010401d204000000000000",
    "020000d204000000000000",
    "0201d204000000000000",
    "02022a00000000000000d204000000000000",
    "0203d204000000000000",
    "0204d204000000000000",
    "0205d204000000000000",
    "020620000800000000fdffffff010000000000010000020000803e03000000000000c0bf04000505000000060600000007d204000000000000",
    "0206120200000000d204000000000000",
    "0300f401000000000000",
    "0301f501000000000000",
    "04feffffffffffffff",
    "05020000000000803f000000bf",
    "06010400000072696e6711000000",
    "0600",
    "0700000000000000000000",
    "0701000000000000000000",
    "0700010000000000000000",
    "070000d007000000000000",
    "0701017011010000000000",
    "0a07000000000000000103000000020000000909000000000100000001",
    "0b0100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f00000000000000100000000000000011000000000000001200000000000000",
    "0c030000000500000068656c6c6f00000000020000003432580000000000000002000000cafe",
    "0d000100000003000000626164",
    "0d01020000004d0000000000000004000000626f6f6d",
    "0d02030000000c0000000000000005000000737475636b",
    "0d030c0000006e6f626f6479206d6f766573",
    "0d040a000000000000000b00000000000000",
    "0d0505000000776f726c64",
    "0e002c01000000000000",
    "0e01",
    "0e020405",
    "0e030c0000000000000006000000646967657374",
    "0e04030000000000000006000000706172656e74",
    "0e0501000000000000000200000000000000",
];

#[test]
fn hello_bytes_are_pinned() {
    let h = Hello {
        token: 0x1122_3344_5566_7788,
        rank: 3,
        proto: 0x0000_0505,
    };
    assert_eq!(h.proto, PROTO_VERSION, "a stale Hello pin");
    let bytes = encode_hello(&h);
    assert_eq!(hex(&bytes), "88776655443322110300000005050000");
    assert_eq!(decode_hello(&bytes).unwrap(), h);
}

#[test]
fn request_bytes_are_pinned() {
    let reqs = requests();
    assert_eq!(reqs.len(), REQUEST_HEX.len());
    for (req, want) in reqs.iter().zip(REQUEST_HEX) {
        let bytes = encode_req(req);
        assert_eq!(&hex(&bytes), want, "{req:?}");
        let back = decode_req(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{req:?}"));
    }
}

#[test]
fn response_bytes_are_pinned() {
    let resps = responses();
    assert_eq!(resps.len(), RESPONSE_HEX.len());
    for (resp, want) in resps.iter().zip(RESPONSE_HEX) {
        let bytes = encode_resp(resp);
        assert_eq!(&hex(&bytes), want, "{resp:?}");
        let back = decode_resp(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{resp:?}"));
    }
}
