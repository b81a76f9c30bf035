//! The WootinJ prelude: the Java-side classes the framework provides.
//!
//! These mirror §3 of the paper: the `MPI` and `CUDA` classes whose method
//! calls translate into *direct* C calls (no JNI-style wrapper cost), the
//! `dim3` / `CudaConfig` value classes for `<<<grid, block>>>` launch
//! configurations, plus `Math` and `WJ` utility natives. The `@Native`
//! keys bind to interpreter natives (`jvm` crate) and to the rows of the
//! NIR intrinsic table (`nir::INTRINSICS`).

/// jlang source of the prelude, prepended to every compilation.
pub const PRELUDE: &str = r#"
final class Math {
  @Native("math.sqrt")  static double sqrt(double x);
  @Native("math.sqrtf") static float sqrtf(float x);
  @Native("math.pow")   static double pow(double x, double y);
  @Native("math.exp")   static double exp(double x);
  @Native("math.absf")  static float absf(float x);
  @Native("math.absd")  static double absd(double x);
  @Native("math.absi")  static int absi(int x);
  @Native("math.mini")  static int mini(int a, int b);
  @Native("math.maxi")  static int maxi(int a, int b);
  @Native("math.minf")  static float minf(float a, float b);
  @Native("math.maxf")  static float maxf(float a, float b);
}

final class WJ {
  @Native("wj.printInt")    static void printInt(int x);
  @Native("wj.printLong")   static void printLong(long x);
  @Native("wj.printFloat")  static void printFloat(float x);
  @Native("wj.printDouble") static void printDouble(double x);
  @Native("wj.printBool")   static void printBool(boolean x);
  @Native("wj.arraycopyF")  static void arraycopyF(float[] src, int srcPos,
                                                   float[] dst, int dstPos, int len);
}

// CUDA's dim3: a strict-final, semi-immutable value class.
@WootinJ final class dim3 {
  int x; int y; int z;
  dim3(int x0, int y0, int z0) { x = x0; y = y0; z = z0; }
}

// The <<<grid, block>>> launch configuration a @Global method takes as
// its first argument (paper, section 3.1).
@WootinJ final class CudaConfig {
  dim3 grid; dim3 block;
  CudaConfig(dim3 g, dim3 b) { grid = g; block = b; }
}

final class CUDA {
  @Native("cuda.threadIdxX") static int threadIdxX();
  @Native("cuda.threadIdxY") static int threadIdxY();
  @Native("cuda.threadIdxZ") static int threadIdxZ();
  @Native("cuda.blockIdxX")  static int blockIdxX();
  @Native("cuda.blockIdxY")  static int blockIdxY();
  @Native("cuda.blockIdxZ")  static int blockIdxZ();
  @Native("cuda.blockDimX")  static int blockDimX();
  @Native("cuda.blockDimY")  static int blockDimY();
  @Native("cuda.blockDimZ")  static int blockDimZ();
  @Native("cuda.gridDimX")   static int gridDimX();
  @Native("cuda.gridDimY")   static int gridDimY();
  @Native("cuda.gridDimZ")   static int gridDimZ();
  @Native("cuda.copyToGPU")   static float[] copyToGPU(float[] a);
  @Native("cuda.copyFromGPU") static void copyFromGPU(float[] dst, float[] src);
  @Native("cuda.allocF32")    static float[] allocF32(int n);
  @Native("cuda.free")        static void free(float[] a);
  @Native("cuda.sync")        static void sync();
  // Partial copies (cudaMemcpy on sub-ranges): halo planes etc.
  @Native("cuda.copyInRange")
  static void copyInRange(float[] dev, int devOff, float[] host, int hostOff, int len);
  @Native("cuda.copyOutRange")
  static void copyOutRange(float[] host, int hostOff, float[] dev, int devOff, int len);
  // The reproduction's spelling of the paper's @Shared fields: allocate a
  // per-block __shared__ float array inside a kernel.
  @Native("cuda.sharedF32")   static float[] sharedF32(int n);
}

final class MPI {
  @Native("mpi.rank")    static int rank();
  @Native("mpi.size")    static int size();
  @Native("mpi.barrier") static void barrier();
  @Native("mpi.sendF")
  static void sendF(float[] buf, int offset, int count, int dest, int tag);
  @Native("mpi.recvF")
  static void recvF(float[] buf, int offset, int count, int src, int tag);
  @Native("mpi.sendrecvF")
  static void sendrecvF(float[] sbuf, int soff, int count, int dest,
                        float[] rbuf, int roff, int src, int tag);
  @Native("mpi.bcastF")
  static void bcastF(float[] buf, int offset, int count, int root);
  @Native("mpi.allreduceSumD") static double allreduceSumD(double x);
  @Native("mpi.allreduceSumF") static float allreduceSumF(float x);
  @Native("mpi.allreduceMaxD") static double allreduceMaxD(double x);
}
"#;
