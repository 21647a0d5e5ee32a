// An integer literal with a leading zero: C reads 010 as octal 8, so
// the parser rejects it rather than read decimal 10 (mekongc
// compile-file exits 2 with a one-line diagnostic that gives the
// literal's line and column).
#include <cuda_runtime.h>

__global__ void scale(int n, float *a /* [n] */) {
  auto i = (threadIdx.x + (blockIdx.x * blockDim.x));
  if ((i < n)) {
    a[i] = (a[i] * 2.0f);
  }
}

int main() {
  float *a;
  cudaMalloc(&a, 1024 * sizeof(float));
  cudaMemcpy(a, host_a, 1024 * sizeof(float), cudaMemcpyHostToDevice);
  for (int it = 0; it < 010; it++) {
    scale<<<dim3(8, 1, 1), dim3(128, 1, 1)>>>(1024, a);
  }
  cudaMemcpy(host_out_a, a, 1024 * sizeof(float), cudaMemcpyDeviceToHost);
  cudaFree(a);
  return 0;
}
