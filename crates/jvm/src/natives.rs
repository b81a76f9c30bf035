//! Default native (intrinsic) implementations for the interpreter.
//!
//! Keys follow a `namespace.name` convention and are referenced from jlang
//! sources via `@Native("key")`. The `wootinj` crate's prelude declares the
//! corresponding Java-side classes (`Math`, `WJ`, `CUDA`, `MPI`).
//!
//! CUDA semantics in the interpreter: device memory is *emulated* by
//! cloning arrays on `cuda.copyToGPU` and copying back on
//! `cuda.copyFromGPU`, which matches the paper's explicit-copy model.
//! `cuda.sync` (i.e. `__syncthreads`) cannot be emulated by a sequential
//! per-thread loop and reports an error directing users to the translated
//! gpu-sim path.
//!
//! MPI semantics in the interpreter: the paper notes that WootinJ programs
//! "can run without WootinJ unless they use MPI or GPUs"; we model a
//! single-rank world (`rank()==0`, `size()==1`, collectives are identity)
//! and reject point-to-point calls.

use std::rc::Rc;

use crate::heap::{ArrayData, Value};
use crate::interp::{Jvm, JvmError, NativeFn};

fn native(
    f: impl for<'a> Fn(&mut Jvm<'a>, &[Value]) -> Result<Value, JvmError> + 'static,
) -> NativeFn {
    Rc::new(f)
}

fn arg(args: &[Value], i: usize) -> Result<&Value, JvmError> {
    args.get(i)
        .ok_or_else(|| JvmError::new(format!("missing native argument {i}")))
}

/// Java's `Math.min(float, float)`: a NaN operand is the result (`a`
/// if both are), and −0.0 is below +0.0. `f32::min` returns the other
/// operand for a NaN and either zero for two zeros.
fn java_min_f32(a: f32, b: f32) -> f32 {
    if a.is_nan() {
        a
    } else if a == 0.0 && b == 0.0 && b.is_sign_negative() {
        b
    } else if a <= b {
        a
    } else {
        b
    }
}

/// Java's `Math.max(float, float)`: as [`java_min_f32`], with +0.0 above
/// −0.0.
fn java_max_f32(a: f32, b: f32) -> f32 {
    if a.is_nan() {
        a
    } else if a == 0.0 && b == 0.0 && a.is_sign_negative() {
        b
    } else if a >= b {
        a
    } else {
        b
    }
}

/// Register the standard native set on a fresh interpreter.
pub fn register_defaults(jvm: &mut Jvm<'_>) {
    // ---------------- Math ----------------
    jvm.register_native(
        "math.sqrt",
        native(|_, a| {
            Ok(Value::Double(
                arg(a, 0)?.to_f64_lossy().map_err(JvmError::new)?.sqrt(),
            ))
        }),
    );
    jvm.register_native(
        "math.sqrtf",
        native(|_, a| {
            Ok(Value::Float(
                arg(a, 0)?.as_f32().map_err(JvmError::new)?.sqrt(),
            ))
        }),
    );
    jvm.register_native(
        "math.pow",
        native(|_, a| {
            let x = arg(a, 0)?.to_f64_lossy().map_err(JvmError::new)?;
            let y = arg(a, 1)?.to_f64_lossy().map_err(JvmError::new)?;
            Ok(Value::Double(x.powf(y)))
        }),
    );
    jvm.register_native(
        "math.exp",
        native(|_, a| {
            Ok(Value::Double(
                arg(a, 0)?.to_f64_lossy().map_err(JvmError::new)?.exp(),
            ))
        }),
    );
    jvm.register_native(
        "math.absf",
        native(|_, a| {
            Ok(Value::Float(
                arg(a, 0)?.as_f32().map_err(JvmError::new)?.abs(),
            ))
        }),
    );
    jvm.register_native(
        "math.absd",
        native(|_, a| {
            Ok(Value::Double(
                arg(a, 0)?.as_f64().map_err(JvmError::new)?.abs(),
            ))
        }),
    );
    jvm.register_native(
        "math.absi",
        native(|_, a| {
            Ok(Value::Int(
                arg(a, 0)?.as_i32().map_err(JvmError::new)?.wrapping_abs(),
            ))
        }),
    );
    jvm.register_native(
        "math.mini",
        native(|_, a| {
            let x = arg(a, 0)?.as_i32().map_err(JvmError::new)?;
            let y = arg(a, 1)?.as_i32().map_err(JvmError::new)?;
            Ok(Value::Int(x.min(y)))
        }),
    );
    jvm.register_native(
        "math.maxi",
        native(|_, a| {
            let x = arg(a, 0)?.as_i32().map_err(JvmError::new)?;
            let y = arg(a, 1)?.as_i32().map_err(JvmError::new)?;
            Ok(Value::Int(x.max(y)))
        }),
    );
    jvm.register_native(
        "math.minf",
        native(|_, a| {
            let x = arg(a, 0)?.as_f32().map_err(JvmError::new)?;
            let y = arg(a, 1)?.as_f32().map_err(JvmError::new)?;
            Ok(Value::Float(java_min_f32(x, y)))
        }),
    );
    jvm.register_native(
        "math.maxf",
        native(|_, a| {
            let x = arg(a, 0)?.as_f32().map_err(JvmError::new)?;
            let y = arg(a, 1)?.as_f32().map_err(JvmError::new)?;
            Ok(Value::Float(java_max_f32(x, y)))
        }),
    );

    // ---------------- WJ (printing & utilities) ----------------
    for (key, kind) in [
        ("wj.printInt", 0),
        ("wj.printLong", 1),
        ("wj.printFloat", 2),
        ("wj.printDouble", 3),
        ("wj.printBool", 4),
    ] {
        jvm.register_native(
            key,
            native(move |jvm, a| {
                let v = arg(a, 0)?;
                let line = match (kind, v) {
                    (0, Value::Int(x)) => x.to_string(),
                    (1, Value::Long(x)) => x.to_string(),
                    (2, Value::Float(x)) => format!("{x}"),
                    (3, Value::Double(x)) => format!("{x}"),
                    (4, Value::Bool(x)) => x.to_string(),
                    (_, other) => return Err(JvmError::new(format!("bad print arg {other}"))),
                };
                jvm.output.push(line);
                Ok(Value::Void)
            }),
        );
    }
    jvm.register_native(
        "wj.arraycopyF",
        native(|jvm, a| {
            let src = arg(a, 0)?.as_arr().map_err(JvmError::new)?;
            let src_pos = arg(a, 1)?.as_i32().map_err(JvmError::new)? as usize;
            let dst = arg(a, 2)?.as_arr().map_err(JvmError::new)?;
            let dst_pos = arg(a, 3)?.as_i32().map_err(JvmError::new)? as usize;
            let len = arg(a, 4)?.as_i32().map_err(JvmError::new)? as usize;
            let data: Vec<f32> = match jvm.heap.arr(src) {
                ArrayData::F32(v) => v
                    .get(src_pos..src_pos + len)
                    .ok_or_else(|| JvmError::new("arraycopy source out of range"))?
                    .to_vec(),
                _ => return Err(JvmError::new("arraycopyF on non-float array")),
            };
            match jvm.heap.arr_mut(dst) {
                ArrayData::F32(v) => {
                    let tgt = v
                        .get_mut(dst_pos..dst_pos + len)
                        .ok_or_else(|| JvmError::new("arraycopy target out of range"))?;
                    tgt.copy_from_slice(&data);
                }
                _ => return Err(JvmError::new("arraycopyF on non-float array")),
            }
            Ok(Value::Void)
        }),
    );

    // ---------------- CUDA (emulation) ----------------
    for (key, sel) in [
        ("cuda.threadIdxX", 0usize),
        ("cuda.threadIdxY", 1),
        ("cuda.threadIdxZ", 2),
        ("cuda.blockIdxX", 3),
        ("cuda.blockIdxY", 4),
        ("cuda.blockIdxZ", 5),
        ("cuda.blockDimX", 6),
        ("cuda.blockDimY", 7),
        ("cuda.blockDimZ", 8),
        ("cuda.gridDimX", 9),
        ("cuda.gridDimY", 10),
        ("cuda.gridDimZ", 11),
    ] {
        jvm.register_native(
            key,
            native(move |jvm, _| {
                let ctx = jvm
                    .cuda
                    .ok_or_else(|| JvmError::new("CUDA register read outside a kernel"))?;
                let v = match sel {
                    0..=2 => ctx.thread_idx[sel],
                    3..=5 => ctx.block_idx[sel - 3],
                    6..=8 => ctx.block_dim[sel - 6],
                    _ => ctx.grid_dim[sel - 9],
                };
                Ok(Value::Int(v))
            }),
        );
    }
    jvm.register_native(
        "cuda.copyToGPU",
        native(|jvm, a| {
            let src = arg(a, 0)?.as_arr().map_err(JvmError::new)?;
            let cloned = jvm.heap.arr(src).clone();
            Ok(Value::Arr(jvm.heap.alloc_arr(cloned)))
        }),
    );
    jvm.register_native(
        "cuda.copyFromGPU",
        native(|jvm, a| {
            let dst = arg(a, 0)?.as_arr().map_err(JvmError::new)?;
            let src = arg(a, 1)?.as_arr().map_err(JvmError::new)?;
            let data = jvm.heap.arr(src).clone();
            *jvm.heap.arr_mut(dst) = data;
            Ok(Value::Void)
        }),
    );
    jvm.register_native(
        "cuda.allocF32",
        native(|jvm, a| {
            let n = arg(a, 0)?.as_i32().map_err(JvmError::new)?;
            if n < 0 {
                return Err(JvmError::new("negative device allocation"));
            }
            Ok(Value::Arr(
                jvm.heap.alloc_arr(ArrayData::F32(vec![0.0; n as usize])),
            ))
        }),
    );
    jvm.register_native("cuda.free", native(|_, _| Ok(Value::Void)));
    jvm.register_native(
        "cuda.copyInRange",
        native(|jvm, a| {
            // (dev, devOff, host, hostOff, len) — emulated: both are heap arrays.
            let dev = arg(a, 0)?.as_arr().map_err(JvmError::new)?;
            let doff = arg(a, 1)?.as_i32().map_err(JvmError::new)? as usize;
            let host = arg(a, 2)?.as_arr().map_err(JvmError::new)?;
            let hoff = arg(a, 3)?.as_i32().map_err(JvmError::new)? as usize;
            let len = arg(a, 4)?.as_i32().map_err(JvmError::new)? as usize;
            let data: Vec<f32> = match jvm.heap.arr(host) {
                ArrayData::F32(v) => v
                    .get(hoff..hoff + len)
                    .ok_or_else(|| JvmError::new("copyInRange source out of range"))?
                    .to_vec(),
                _ => return Err(JvmError::new("copyInRange on non-float array")),
            };
            match jvm.heap.arr_mut(dev) {
                ArrayData::F32(v) => {
                    let tgt = v
                        .get_mut(doff..doff + len)
                        .ok_or_else(|| JvmError::new("copyInRange target out of range"))?;
                    tgt.copy_from_slice(&data);
                }
                _ => return Err(JvmError::new("copyInRange on non-float array")),
            }
            Ok(Value::Void)
        }),
    );
    jvm.register_native(
        "cuda.copyOutRange",
        native(|jvm, a| {
            // (host, hostOff, dev, devOff, len)
            let host = arg(a, 0)?.as_arr().map_err(JvmError::new)?;
            let hoff = arg(a, 1)?.as_i32().map_err(JvmError::new)? as usize;
            let dev = arg(a, 2)?.as_arr().map_err(JvmError::new)?;
            let doff = arg(a, 3)?.as_i32().map_err(JvmError::new)? as usize;
            let len = arg(a, 4)?.as_i32().map_err(JvmError::new)? as usize;
            let data: Vec<f32> = match jvm.heap.arr(dev) {
                ArrayData::F32(v) => v
                    .get(doff..doff + len)
                    .ok_or_else(|| JvmError::new("copyOutRange source out of range"))?
                    .to_vec(),
                _ => return Err(JvmError::new("copyOutRange on non-float array")),
            };
            match jvm.heap.arr_mut(host) {
                ArrayData::F32(v) => {
                    let tgt = v
                        .get_mut(hoff..hoff + len)
                        .ok_or_else(|| JvmError::new("copyOutRange target out of range"))?;
                    tgt.copy_from_slice(&data);
                }
                _ => return Err(JvmError::new("copyOutRange on non-float array")),
            }
            Ok(Value::Void)
        }),
    );
    jvm.register_native(
        "cuda.sharedF32",
        native(|_, _| {
            Err(JvmError::new(
                "shared memory cannot be emulated by the sequential interpreter; \
                 translate the kernel and run it on gpu-sim",
            ))
        }),
    );
    jvm.register_native(
        "cuda.sync",
        native(|_, _| {
            Err(JvmError::new(
                "__syncthreads cannot be emulated by the sequential interpreter; \
                 translate the kernel and run it on gpu-sim",
            ))
        }),
    );

    // ---------------- MPI (single-rank emulation) ----------------
    jvm.register_native("mpi.rank", native(|_, _| Ok(Value::Int(0))));
    jvm.register_native("mpi.size", native(|_, _| Ok(Value::Int(1))));
    jvm.register_native("mpi.barrier", native(|_, _| Ok(Value::Void)));
    jvm.register_native(
        "mpi.allreduceSumD",
        native(|_, a| Ok(Value::Double(arg(a, 0)?.as_f64().map_err(JvmError::new)?))),
    );
    jvm.register_native(
        "mpi.allreduceSumF",
        native(|_, a| Ok(Value::Float(arg(a, 0)?.as_f32().map_err(JvmError::new)?))),
    );
    jvm.register_native(
        "mpi.allreduceMaxD",
        native(|_, a| Ok(Value::Double(arg(a, 0)?.as_f64().map_err(JvmError::new)?))),
    );
    for key in ["mpi.sendF", "mpi.recvF", "mpi.sendrecvF", "mpi.bcastF"] {
        jvm.register_native(
            key,
            native(move |_, _| {
                Err(JvmError::new(
                    "MPI point-to-point communication requires translation (jit, then \
                     set_mpi) and the mpi-sim runtime; the interpreter models a single rank",
                ))
            }),
        );
    }
}
