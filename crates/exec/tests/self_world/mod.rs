//! The MPI world of the tests that drive `exec::run` slice by slice.

use exec::{Machine, Val};
use nir::IntrinOp;

/// A one-rank MPI world: rank 0 of 1, so every message goes to oneself.
#[derive(Default)]
pub struct SelfWorld {
    /// Sent and not yet received: `(tag, payload)`.
    mailbox: Vec<(i32, Vec<f32>)>,
}

fn int(v: Val) -> i32 {
    v.as_i32().unwrap()
}

impl SelfWorld {
    /// `send(buf, off, count, .., tag)`: copy the range into the mailbox.
    fn send(&mut self, m: &Machine, buf: Val, off: Val, count: Val, tag: Val) {
        let store = m.mem.arr(buf.as_arr().unwrap()).unwrap();
        let payload = (0..int(count) as usize)
            .map(|i| match store.get(int(off) as usize + i).unwrap() {
                Val::F32(v) => v,
                other => panic!("non-float message element {other:?}"),
            })
            .collect();
        self.mailbox.push((int(tag), payload));
    }

    /// `recv(buf, off, .., tag)`: copy the oldest matching message out.
    fn recv(&mut self, m: &mut Machine, buf: Val, off: Val, tag: Val) {
        let at = self
            .mailbox
            .iter()
            .position(|(t, _)| *t == int(tag))
            .expect("receive with no matching message");
        let (_, payload) = self.mailbox.remove(at);
        let store = m.mem.arr_mut(buf.as_arr().unwrap()).unwrap();
        for (i, v) in payload.into_iter().enumerate() {
            store.set(int(off) as usize + i, Val::F32(v)).unwrap();
        }
    }

    /// Service one MPI yield (operand layouts as in `mpi_sim::runtime`).
    pub fn service(&mut self, m: &mut Machine, op: IntrinOp, a: &[Val]) -> Val {
        match op {
            IntrinOp::MpiRank => return Val::I32(0),
            IntrinOp::MpiSize => return Val::I32(1),
            IntrinOp::MpiAllreduceSumF64
            | IntrinOp::MpiAllreduceSumF32
            | IntrinOp::MpiAllreduceMaxF64 => return a[0],
            IntrinOp::MpiBarrier | IntrinOp::MpiBcastF32 => {}
            IntrinOp::MpiSendF32 => self.send(m, a[0], a[1], a[2], a[4]),
            IntrinOp::MpiRecvF32 => self.recv(m, a[0], a[1], a[4]),
            IntrinOp::MpiSendRecvF32 => {
                self.send(m, a[0], a[1], a[2], a[7]);
                self.recv(m, a[4], a[5], a[7]);
            }
            other => panic!("unexpected MPI op {other:?}"),
        }
        Val::Unit
    }
}
