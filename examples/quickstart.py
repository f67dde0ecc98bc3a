"""Quickstart: vectorize a small program and run it through Conduit.

This example shows the full Conduit pipeline on a toy application:

1. describe the application as a scalar loop program (the role the LLVM
   frontend plays in the paper),
2. run Conduit's compile-time auto-vectorization pass,
3. build the simulated NDP-capable SSD platform,
4. execute the vectorized program under Conduit's runtime offloader, and
5. compare against the host-CPU (outside-storage processing) baseline.

Run with:  python examples/quickstart.py
"""

from repro import (AutoVectorizer, ConduitPolicy, ConduitRuntime,
                   HostRuntime, Loop, OpType, Resource, ScalarProgram,
                   ScalarStatement, SSDPlatform, speedup)
from repro.core.platform import PlatformConfig
from repro.common import MIB


def build_application() -> ScalarProgram:
    """A small streaming kernel: c = (a XOR b) + a, repeated twice."""
    program = ScalarProgram("quickstart")
    elements = 256 * 1024
    program.declare_array("a", elements, element_bits=8)
    program.declare_array("b", elements, element_bits=8)
    program.declare_array("c", elements, element_bits=8)
    program.add_loop(Loop(
        name="stream",
        trip_count=elements,
        body=[
            ScalarStatement(op=OpType.XOR, dest="c", sources=("a", "b")),
            ScalarStatement(op=OpType.ADD, dest="c", sources=("c", "a")),
        ],
        repetitions=2,
    ))
    return program


def main() -> None:
    # 1-2. Compile-time preprocessing (programmer-transparent).
    scalar_program = build_application()
    vector_program, report = AutoVectorizer().vectorize(scalar_program)
    print(f"Vectorized {report.vectorizable_fraction:.0%} of the code into "
          f"{len(vector_program)} SIMD instructions")
    for remark in report.remarks:
        print(f"  [{remark.loop}] {remark.reason}")

    # 3. Build the simulated SSD platform (small windows keep this snappy).
    platform_config = PlatformConfig(dram_compute_window_bytes=2 * MIB,
                                     host_cache_bytes=2 * MIB)

    # 4. Run under Conduit's runtime offloader.
    conduit_platform = SSDPlatform(platform_config)
    print("\nDiscovered compute backends:",
          ", ".join(conduit_platform.backends.roster()))
    print("Offload candidates:",
          ", ".join(str(r.value)
                    for r in conduit_platform.backends.offload_candidates()))
    conduit_result = ConduitRuntime(conduit_platform).execute(
        vector_program, ConduitPolicy(), "quickstart")
    print(f"\nConduit: {conduit_result.total_time_ns / 1e6:.3f} ms, "
          f"{conduit_result.total_energy_nj / 1e6:.2f} mJ")
    print("  resource mix:",
          {r.value: f"{f:.0%}" for r, f in
           conduit_result.ssd_resource_fractions().items()})
    print(f"  avg offloading overhead: "
          f"{conduit_result.offload_overhead_avg_ns / 1e3:.2f} us")

    # 5. Compare against the host-CPU OSP baseline.
    cpu_platform = SSDPlatform(platform_config)
    cpu_result = HostRuntime(cpu_platform).execute(
        vector_program, Resource.HOST_CPU, "quickstart")
    print(f"\nHost CPU: {cpu_result.total_time_ns / 1e6:.3f} ms, "
          f"{cpu_result.total_energy_nj / 1e6:.2f} mJ")
    print(f"\nConduit speedup over CPU: "
          f"{speedup(cpu_result, conduit_result):.2f}x")


if __name__ == "__main__":
    main()
