//! The programs `control_flow.rs` runs against the `jvm` in every mode
//! and `verify_corpus.rs` pins byte for byte. Each is a set of top-level
//! classes beside the members of the entry class `P`, which has
//! `run(int[] a)`; it gets [`INPUT`] and may write to it.

/// The array each program gets.
pub const INPUT: [i32; 8] = [7, -3, 2147483647, -2147483648, 5, 0, 100, 13];

/// `(name, top-level classes, members of class P)`.
pub const PROGRAMS: &[(&str, &str, &str)] = &[
    (
        "for with continue",
        "",
        "int run(int[] a) {
           int s = 0;
           for (int i = 0; i < a.length; i++) {
             if (a[i] % 3 == 0) { continue; }
             s += a[i] % 1000;
             a[i] = s;
           }
           return s;
         }",
    ),
    (
        "while with break",
        "",
        "int run(int[] a) {
           int i = 0;
           while (i < a.length) {
             if (a[i] > 40) { break; }
             a[i] = a[i] * 2;
             i++;
           }
           return i;
         }",
    ),
    (
        "for (;;) left by break",
        "",
        "int run(int[] a) {
           int n = 0;
           for (;;) {
             n++;
             if (n >= a.length) { break; }
             a[n] = a[n - 1] / 2 + a[n] % 7;
           }
           return n;
         }",
    ),
    (
        "nested loops",
        "",
        "long run(int[] a) {
           long s = 1L;
           for (int i = 0; i < a.length; i++) {
             int j = 0;
             while (true) {
               j++;
               if (j > i) { break; }
               if ((i + j) % 2 == 0) { continue; }
               for (int k = 0; k < 3; k++) {
                 if (k == j) { break; }
                 s = s * 31L + a[i] * j - k;
               }
             }
             a[i] = (int) s;
           }
           return s;
         }",
    ),
    (
        "&& and || with an effect on the right",
        "",
        "boolean bump(int[] a, int i, boolean v) {
           a[i] = a[i] + 1;
           return v;
         }
         int run(int[] a) {
           int c = 0;
           for (int i = 0; i < a.length; i++) {
             if (a[i] > 10 && bump(a, i, a[i] % 2 == 0)) { c += 1; }
             if (a[i] < 5 || bump(a, i, false)) { c += 100; }
           }
           boolean x = a[1] > 0 && bump(a, 0, true) || bump(a, 5, a[6] > 0);
           boolean y = !(a[4] < 0 || bump(a, 7, true)) && bump(a, 7, false);
           if (x) { c += 10000; }
           if (y) { c += 20000; }
           return c;
         }",
    ),
    (
        "unary operators and every numeric cast",
        "",
        "double run(int[] a) {
           int i = -a[0];
           long l = -(long) a[3];
           float f = -(float) a[2] / 3f;
           double d = -(double) a[1] / 7.0;
           boolean z = !(a[4] > 3);
           long il = (long) a[2] * 3L;
           float fi = (float) a[2];
           double di = (double) a[3];
           int li = (int) il;
           float lf = (float) il;
           double ld = (double) l;
           int fl = (int) (f * 1.0e10f);
           long flong = (long) (f * 1.0e20f);
           double fd = (double) f;
           int dl = (int) (d * 1.0e12);
           long dlong = (long) (d * 1.0e30);
           float df = (float) (d * 1.0e40);
           a[0] = i;
           a[1] = li;
           a[2] = fl;
           a[3] = dl;
           a[4] = (int) flong;
           a[5] = (int) (dlong >> 32);
           a[6] = (int) df;
           a[7] = -(int) fi;
           if (z) { return -(ld + di + fd + (double) lf); }
           return ld + di + fd + (double) lf + (double) df;
         }",
    ),
    (
        "array new, store, load and length",
        "",
        "float run(int[] a) {
           float[] f = new float[a.length + 1];
           double[] d = new double[3];
           long[] l = new long[a.length];
           boolean[] z = new boolean[2];
           int[] c = new int[a.length];
           for (int i = 0; i < a.length; i++) {
             f[i] = (float) a[i] * 0.5f;
             l[i] = (long) a[i] << 33;
             c[a.length - 1 - i] = a[i];
           }
           f[a.length] = (float) f.length;
           d[1] = (double) f[2] + (double) d.length;
           z[1] = l[0] > 0L;
           for (int i = 0; i < a.length; i++) {
             a[i] = c[i] + (int) (l[i] >> 40) + l.length;
           }
           if (z[1] && !z[0]) { return f[a.length] + (float) d[1] + (float) c.length; }
           return f[0];
         }",
    ),
    // Constructor chains. Each `new` is reached from a void method
    // (`fill`, which only the lowerer walks) and from a valued one
    // (`make`, whose return shape the shape evaluator computes first).
    (
        "3-level chain with computed super arguments",
        "class A3 { int x; long w; A3(int x0, long w0) { x = x0 * 2 + 1; w = w0 - (long) x0; } }
         class B3 extends A3 { int y; B3(int p, int q) { super(p + q, (long) (p * q)); y = x - q; } }
         final class C3 extends B3 {
           float z;
           C3(int k) { super(k * 3, k - 7); z = (float) (x + y) * 0.5f + (float) k; }
         }",
        "void fill(int[] a, int k) {
           C3 c = new C3(k);
           a[0] = c.x; a[1] = c.y; a[2] = (int) c.w; a[3] = (int) (c.z * 4f);
         }
         int make(int k) {
           C3 c = new C3(k);
           return c.x * 1000 + c.y * 10 + (int) c.w + (int) c.z;
         }
         int run(int[] a) { fill(a, a[4]); return make(a[0]) + a[1]; }",
    ),
    (
        "field initializers, one a nested new",
        "final class In { int v; In(int v0) { v = v0 + 1; } }
         final class F {
           int a = 5; In inner = new In(40); long b = 3L; int c;
           F(int k) { c = a * k + 1; a = a + k; }
         }",
        "void fill(int[] a, int k) {
           F f = new F(k);
           a[0] = f.a; a[1] = f.inner.v; a[2] = (int) f.b; a[3] = f.c;
         }
         int make(int k) {
           F f = new F(k);
           return f.a * 10000 + f.inner.v * 100 + (int) f.b * 10 + f.c;
         }
         int run(int[] a) { fill(a, a[4]); return make(a[7]); }",
    ),
    (
        "a subclass overwrites a field its superclass set",
        "class Base { int v; float g; Base(int v0) { v = v0; g = 1.5f; } }
         final class Over extends Base { Over(int k) { super(k + 2); v = v * 10 + k; g = g * 2f; } }",
        "void fill(int[] a, int k) {
           Over o = new Over(k);
           a[5] = o.v; a[6] = (int) (o.g * 100f);
         }
         int make(int k) {
           Over o = new Over(k);
           return o.v + (int) (o.g * 10f);
         }
         int run(int[] a) { fill(a, a[0]); return make(a[4]); }",
    ),
    (
        "an unassigned primitive field is read",
        "final class U { int n; long m; float f; double d; boolean z; U(int k) { n = k; } }",
        "void fill(int[] a, int k) {
           U u = new U(k);
           a[0] = u.n + (int) u.m + (int) u.f + (int) u.d;
           if (!u.z) { a[1] = 99; }
         }
         int make(int k) {
           U u = new U(k);
           if (u.z) { return -1; }
           return u.n * 3 + (int) u.m + (int) u.f + (int) u.d;
         }
         int run(int[] a) { fill(a, a[6]); return make(a[4]); }",
    ),
    (
        "a new inside a super(...) argument",
        "final class Box { int v; Box(int v0) { v = v0 * 3; } }
         class Holder { Box box; int h; Holder(Box b, int h0) { box = b; h = h0; } }
         final class Kid extends Holder { int k2; Kid(int k) { super(new Box(k + 1), k * 2); k2 = h + 1; } }",
        "void fill(int[] a, int k) {
           Kid d = new Kid(k);
           a[2] = d.box.v; a[3] = d.h + d.k2;
         }
         int make(int k) {
           Kid d = new Kid(k);
           return d.box.v * 100 + d.k2;
         }
         int run(int[] a) { fill(a, a[1]); return make(a[4]); }",
    ),
    (
        "a subclass initializer reads its superclass's fields",
        "class Base2 { int v; Base2(int v0) { v = v0 * 5; } }
         final class Sub2 extends Base2 {
           int seen = v + 1; long twice = (long) v * 2L;
           Sub2(int k) { super(k - 1); v = k; }
         }",
        "void fill(int[] a, int k) {
           Sub2 s = new Sub2(k);
           a[4] = s.seen; a[5] = s.v + (int) s.twice;
         }
         int make(int k) {
           Sub2 s = new Sub2(k);
           return s.seen * 1000 + s.v * 10 + (int) s.twice;
         }
         int run(int[] a) { fill(a, a[0]); return make(a[6]); }",
    ),
    (
        "a constructor reads an array field's length",
        "final class Buf { float[] buf; int n; Buf(int k) { buf = new float[k]; n = buf.length + 1; } }",
        "void fill(int[] a, int k) {
           Buf b = new Buf(k);
           a[0] = b.n;
         }
         int make(int k) {
           Buf b = new Buf(k);
           return b.n * 10 + b.buf.length;
         }
         int run(int[] a) { fill(a, 3); return make(4); }",
    ),
    (
        "a constructor stores an array element",
        "final class St { float[] buf; St(int k) { buf = new float[k]; buf[0] = 2.0f; } }",
        "void fill(int[] a, int k) {
           St s = new St(k);
           a[1] = (int) (s.buf[0] * 3f);
         }
         int make(int k) {
           St s = new St(k);
           return (int) s.buf[0] * 100 + s.buf.length;
         }
         int run(int[] a) { fill(a, 2); return make(5); }",
    ),
    (
        "a constructor reads its own field before assigning it",
        "final class R { int a; int b; R(int k) { a = b + k; b = 3; } }",
        "void fill(int[] a, int k) {
           R r = new R(k);
           a[3] = r.a * 10 + r.b;
         }
         int make(int k) {
           R r = new R(k);
           return r.a * 10 + r.b;
         }
         int run(int[] a) { fill(a, a[4]); return make(4); }",
    ),
];

/// The source of a program: its classes, then `P`.
pub fn source(classes: &str, members: &str) -> String {
    format!("{classes}\n@WootinJ final class P {{ P() {{ }} {members} }}")
}
