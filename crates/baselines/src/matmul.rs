//! The paper's *C* matrix multiplication (§4.2) in native Rust, with
//! `hpclib`'s matmul library semantics: `DefaultGen` inputs, `C = A·B`,
//! checksum of `C`.

/// `DefaultGen.value` (identical to the jlang library).
#[inline]
pub fn default_gen(which: i32, r: i32, c: i32, _n: i32) -> f32 {
    let h = r * 13 + c * 7 + which * 101;
    ((h % 19) - 9) as f32 * 0.125
}

pub fn gen_matrix(which: i32, n: usize) -> Vec<f32> {
    (0..n * n)
        .map(|i| default_gen(which, (i / n) as i32, (i % n) as i32, n as i32))
        .collect()
}

/// The *C* baseline: flat ikj loops on raw slices.
pub mod c_style {
    use super::*;

    pub fn matmul_checksum(n: usize) -> f32 {
        let a = gen_matrix(0, n);
        let b = gen_matrix(1, n);
        let mut c = vec![0.0f32; n * n];
        for i in 0..n {
            for k in 0..n {
                let aik = a[i * n + k];
                for j in 0..n {
                    c[i * n + j] += aik * b[k * n + j];
                }
            }
        }
        c.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_inputs_are_nontrivial() {
        let a = gen_matrix(0, 16);
        let b = gen_matrix(1, 16);
        assert_ne!(a, b);
        assert!(a.iter().any(|v| *v > 0.0));
        assert!(a.iter().any(|v| *v < 0.0));
    }
}
