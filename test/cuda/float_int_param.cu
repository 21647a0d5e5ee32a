// A float launch argument for an int parameter: the analysis would
// read n as 2 and the kernel as 2.5, so the parser rejects the launch
// (mekongc compile-file exits 2 with a one-line diagnostic that gives
// the argument's line and column).
#include <cuda_runtime.h>

__global__ void vecadd(int n, float *a /* [n] */, float *b /* [n] */, float *c /* [n] */) {
  auto i = (threadIdx.x + (blockIdx.x * blockDim.x));
  if ((i < n)) {
    c[i] = (a[i] + b[i]);
  }
}

int main() {
  float *a;
  cudaMalloc(&a, 1024 * sizeof(float));
  float *b;
  cudaMalloc(&b, 1024 * sizeof(float));
  float *c;
  cudaMalloc(&c, 1024 * sizeof(float));
  cudaMemcpy(a, host_a, 1024 * sizeof(float), cudaMemcpyHostToDevice);
  cudaMemcpy(b, host_b, 1024 * sizeof(float), cudaMemcpyHostToDevice);
  vecadd<<<dim3(8, 1, 1), dim3(128, 1, 1)>>>(2.5f, a, b, c);
  cudaMemcpy(host_out_c, c, 1024 * sizeof(float), cudaMemcpyDeviceToHost);
  cudaFree(a);
  cudaFree(b);
  cudaFree(c);
  return 0;
}
