// An infinite float constant renders as inff, which names nothing: the
// kernel fails its scope check as it is parsed (mekongc compile-file
// exits 2 with a one-line diagnostic at the kernel's line and column).
#include <cuda_runtime.h>

__global__ void clamp(int n, float *a /* [n] */) {
  auto i = (threadIdx.x + (blockIdx.x * blockDim.x));
  if ((i < n)) {
    a[i] = min(a[i], inff);
  }
}

int main() {
  float *a;
  cudaMalloc(&a, 1024 * sizeof(float));
  cudaMemcpy(a, host_a, 1024 * sizeof(float), cudaMemcpyHostToDevice);
  clamp<<<dim3(8, 1, 1), dim3(128, 1, 1)>>>(1024, a);
  cudaMemcpy(host_out_a, a, 1024 * sizeof(float), cudaMemcpyDeviceToHost);
  cudaFree(a);
  return 0;
}
