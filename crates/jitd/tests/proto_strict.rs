//! The service payload decoders accept exactly what the encoders write:
//! no trailing bytes, no silently dropped list tail, and a length prefix
//! that promises more than the input holds is a typed error, not a short
//! read.

use jitd::client::jit_request;
use jitd::proto::{
    decode_hello, decode_reply, decode_request, encode_hello, encode_reply, encode_request, Arg,
    Hello, PassTotals, Reply, Request, ServiceStats, SERVICE_PROTO,
};
use mpi_sim::TransportError;

fn is_corrupt<T>(r: Result<T, TransportError>) -> bool {
    matches!(r, Err(TransportError::Corrupt { .. }))
}

fn jit() -> Request {
    Request::Jit(jit_request(
        "a.jl",
        "class A { }",
        "A",
        "run",
        vec![Arg::I32(7), Arg::F32Arr(vec![1.0, 2.0])],
    ))
}

#[test]
fn one_extra_byte_after_any_payload_is_corrupt() {
    let mut hello = encode_hello(&Hello {
        proto: SERVICE_PROTO,
        tenant: "acme".into(),
    });
    assert!(decode_hello(&hello).is_ok());
    hello.push(0);
    assert!(is_corrupt(decode_hello(&hello)));

    for req in [jit(), Request::Stats, Request::Shutdown] {
        let mut bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes).unwrap(), req);
        bytes.push(0);
        assert!(is_corrupt(decode_request(&bytes)), "{req:?}");
    }

    let replies = [
        Reply::HelloOk {
            proto: SERVICE_PROTO,
        },
        Reply::Err {
            message: "no".into(),
        },
        Reply::Stats(Box::default()),
        Reply::Bye,
    ];
    for reply in replies {
        let mut bytes = encode_reply(&reply);
        assert_eq!(decode_reply(&bytes).unwrap(), reply);
        bytes.push(0);
        assert!(is_corrupt(decode_reply(&bytes)), "{reply:?}");
    }
}

#[test]
fn long_lists_come_back_whole() {
    // More pass records than the old decoder's silent cap of 1024.
    let stats = ServiceStats {
        admitted: 3,
        passes: (0..1500)
            .map(|i| PassTotals {
                pass: format!("p{i}"),
                wall_us: i,
                instrs_before: 2 * i,
                instrs_after: i,
            })
            .collect(),
        ..ServiceStats::default()
    };
    let reply = Reply::Stats(Box::new(stats));
    assert_eq!(decode_reply(&encode_reply(&reply)).unwrap(), reply);
}

#[test]
fn a_length_prefix_past_the_input_is_corrupt() {
    // The `F32Arr` length prefix is the four bytes before its 2 × 4
    // payload bytes and the two trailing u64s.
    let mut bytes = encode_request(&jit());
    let at = bytes.len() - 16 - 8 - 4;
    assert_eq!(bytes[at..at + 4], 2u32.to_le_bytes());
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(is_corrupt(decode_request(&bytes)));
    // One element too many: still a typed error, never a short list.
    bytes[at..at + 4].copy_from_slice(&100u32.to_le_bytes());
    assert!(is_corrupt(decode_request(&bytes)));
}
