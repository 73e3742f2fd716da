#!/usr/bin/env python3
"""Paper section 2.3 walkthrough: the fused multiply-add transform.

Reproduces Figure 4 end-to-end on a small kernel:

  (a) construct the TDG via the simulator;
  (b) render a window of the original µDG;
  (c) run the fma *analyzer* (which fmul/fadd pairs fuse);
  (d) apply the *transformer* (retype fmul -> fma, elide fadd);
      both are the transform DSL's ``fma_rule()``;
  (e) render the core+accel µDG and compare critical paths.

Run:  python examples/fma_walkthrough.py
"""

from repro.core_model import OOO2
from repro.programs import KernelBuilder, disassemble
from repro.tdg import DslTransform, TimingEngine, construct_tdg, fma_rule
from repro.tdg.constructor import build_window_graph
from repro.tdg.fastpath import StreamBuilder


def build_kernel():
    """A small loop with one fusable fmul->fadd pair per iteration."""
    k = KernelBuilder("fma_demo")
    a = k.array("a", [float(i % 7) for i in range(32)])
    b = k.array("b", [0.5] * 32)
    out = k.array("out", 32)
    with k.function("main"):
        with k.loop(32) as i:
            av = k.ld(a, i)
            bv = k.ld(b, i)
            prod = k.fmul(av, bv)          # single use ...
            total = k.fadd(prod, 1.0)      # ... feeding an fadd
            k.st(out, i, total)
        k.halt()
    return k.build()


def main():
    program, memory = build_kernel()
    print("== program (paper Fig. 4(a)) ==")
    print(disassemble(program))

    tdg = construct_tdg(program, memory)

    print("== analyzer plan (Fig. 4(c)) ==")
    transform = DslTransform(program, [fma_rule()])
    for plan in transform.plans:
        fmul_uid, fadd_uid = plan.uids
        print(f"  fuse  {program.instruction(fmul_uid)}  +  "
              f"{program.instruction(fadd_uid)}")

    print("\n== original µDG window (Fig. 4(b)) ==")
    window = tdg.trace.instructions[2:10]
    graph = build_window_graph(window, OOO2)
    print(graph.render())

    out = StreamBuilder()
    transform.apply(tdg.trace.instructions, out)
    transformed = out.rows

    print("\n== core+accel µDG window (Fig. 4(e)) ==")
    graph2 = build_window_graph(transformed[2:9], OOO2)
    print(graph2.render())

    before = TimingEngine(OOO2).run(tdg.trace.instructions)
    after = TimingEngine(OOO2).run(transformed)
    print(f"\noriginal:    {before.cycles} cycles "
          f"({before.instructions} insts)")
    print(f"transformed: {after.cycles} cycles "
          f"({after.instructions} insts)")
    print(f"speedup:     {before.cycles / after.cycles:.3f}x")

    print("\ncritical-path edge mix (original window):")
    for kind, count in sorted(graph.critical_kind_histogram().items(),
                              key=lambda kv: -kv[1]):
        print(f"  {kind.value:<18} {count}")


if __name__ == "__main__":
    main()
