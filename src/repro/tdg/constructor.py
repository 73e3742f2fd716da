"""TDG construction: program + trace + IR, bundled (paper Fig. 2/4a).

``construct_tdg`` runs the interpreter (the gem5 stand-in) over a
program and produces a :class:`TDG` — the original ``TDG_{GPP,0}`` —
holding the dynamic trace, the program IR, and a lazy handle to the
loop tree the transforms need (path profiles live on
:class:`repro.accel.base.AnalysisContext`).
"""

from repro.sim.interpreter import run_program
from repro.tdg.mudg import MicroDepGraph, NodeKind, EdgeKind


class TDG:
    """The Transformable Dependence Graph of one execution."""

    def __init__(self, program, trace, memory_image=None):
        self.program = program
        self.trace = trace
        self.memory_image = memory_image
        self._loop_tree = None

    # -- lazy analyses ---------------------------------------------------
    @property
    def loop_tree(self):
        """Natural-loop nesting forest of the program (per function)."""
        if self._loop_tree is None:
            from repro.analysis.loops import build_loop_forest
            self._loop_tree = build_loop_forest(self.program)
        return self._loop_tree

    # -- explicit window graphs ------------------------------------------
    def window_graph(self, config, start=0, end=None):
        """Materialize the explicit µDG for trace[start:end] under
        *config* (for inspection/validation; mirrors the fast engine's
        edge rules minus the resource tables)."""
        stream = self.trace.instructions[start:end]
        return build_window_graph(stream, config)

    def critical_path_report(self, config, start=0, end=None, top=8):
        """Appendix-A style sanity check: the critical-path edge mix of
        a trace window under *config*.

        Returns (total_cycles, [(edge_kind, count), ...]) sorted by
        count — "examining which edges are on the critical path for
        some code region" when validating a new BSA model.
        """
        graph = self.window_graph(config, start, end)
        histogram = graph.critical_kind_histogram()
        ranked = sorted(histogram.items(), key=lambda kv: -kv[1])[:top]
        return graph.total_cycles(), ranked

    def __repr__(self):
        return (f"<TDG {self.program.name}: {len(self.trace)} dyn insts, "
                f"{len(self.program)} static>")


def construct_tdg(program, memory=None, max_instructions=2_000_000,
                  caches=None, predictor=None):
    """Run the simulator over *program* and build the original TDG."""
    from repro.obs import span

    with span("tdg.construct", program=program.name):
        trace = run_program(program, memory=memory,
                            max_instructions=max_instructions,
                            caches=caches, predictor=predictor)
        return TDG(program, trace, memory_image=memory)


def build_window_graph(stream, config):
    """Explicit µDG for a (small) stream under *config*.

    Models bandwidth, front-end, data/memory-dependence, latency,
    commit and misprediction edges; structural hazards are left to the
    fast engine's reservation tables (the paper notes the graph
    representation itself is constraining for resource contention).
    """
    graph = MicroDepGraph()
    width = config.width
    in_order = config.in_order
    seq_to_pos = {}
    insts = list(stream)
    core_before = []   # core-side insts seen so far, in order

    for pos, inst in enumerate(insts):
        seq = inst.seq
        seq_to_pos[seq] = pos
        if inst.accel is not None:
            execute = graph.add_node(seq, NodeKind.EXECUTE)
            complete = graph.add_node(seq, NodeKind.COMPLETE)
            for dep in inst.src_deps:
                if dep in seq_to_pos:
                    src = (dep, NodeKind.COMPLETE)
                    graph.add_edge(src, execute, 0, EdgeKind.DATA_DEP)
            for dep, lat in inst.extra_deps:
                if dep in seq_to_pos:
                    src = (dep, NodeKind.COMPLETE)
                    graph.add_edge(src, execute, lat, EdgeKind.ACCEL_DEP)
            graph.add_edge(execute, complete, inst.latency,
                           EdgeKind.EXEC_LAT)
            continue

        fetch = graph.add_node(seq, NodeKind.FETCH)
        dispatch = graph.add_node(seq, NodeKind.DISPATCH)
        execute = graph.add_node(seq, NodeKind.EXECUTE)
        complete = graph.add_node(seq, NodeKind.COMPLETE)
        commit = graph.add_node(seq, NodeKind.COMMIT)

        if core_before:
            prev = core_before[-1]
            graph.add_edge((prev.seq, NodeKind.FETCH), fetch, 0,
                           EdgeKind.PROGRAM_ORDER)
            graph.add_edge((prev.seq, NodeKind.COMMIT), commit, 0,
                           EdgeKind.COMMIT_ORDER)
            if prev.mispredicted:
                graph.add_edge((prev.seq, NodeKind.COMPLETE), fetch,
                               config.branch_penalty,
                               EdgeKind.BRANCH_MISPRED)
            if in_order:
                graph.add_edge((prev.seq, NodeKind.EXECUTE), execute, 0,
                               EdgeKind.INORDER_ISSUE)
        if len(core_before) >= width:
            wprev = core_before[-width]
            graph.add_edge((wprev.seq, NodeKind.FETCH), fetch, 1,
                           EdgeKind.FETCH_BW)
            graph.add_edge((wprev.seq, NodeKind.DISPATCH), dispatch, 1,
                           EdgeKind.DISPATCH_BW)
            graph.add_edge((wprev.seq, NodeKind.COMMIT), commit, 1,
                           EdgeKind.COMMIT_BW)
        if not in_order:
            rob = config.rob_size
            iq = config.iq_size
            if rob is not None and len(core_before) >= rob:
                graph.add_edge((core_before[-rob].seq, NodeKind.COMMIT),
                               dispatch, 1, EdgeKind.ROB_FULL)
            if iq is not None and len(core_before) >= iq:
                graph.add_edge((core_before[-iq].seq, NodeKind.EXECUTE),
                               dispatch, 1, EdgeKind.IQ_FULL)

        graph.add_edge(fetch, dispatch,
                       config.decode_depth + inst.icache_lat,
                       EdgeKind.ICACHE_MISS if inst.icache_lat
                       else EdgeKind.DECODE_PIPE)
        graph.add_edge(dispatch, execute, 1, EdgeKind.ISSUE)
        for dep in inst.src_deps:
            if dep in seq_to_pos:
                graph.add_edge((dep, NodeKind.COMPLETE), execute, 0,
                               EdgeKind.DATA_DEP)
        if inst.mem_dep is not None and inst.mem_dep in seq_to_pos \
                and not inst.static.is_store:
            graph.add_edge((inst.mem_dep, NodeKind.COMPLETE), execute, 0,
                           EdgeKind.MEM_DEP)
        graph.add_edge(execute, complete, inst.latency, EdgeKind.EXEC_LAT)
        graph.add_edge(complete, commit, 1, EdgeKind.COMPLETE_COMMIT)
        core_before.append(inst)

    return graph
