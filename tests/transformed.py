"""Recorded transform output for tests.

BSA transforms emit into a :class:`~repro.tdg.fastpath.StreamBuilder`;
its ``rows`` are the emitted stream as
:class:`~repro.sim.trace.DynInst` objects, the list tests inspect.
"""

from repro.tdg.fastpath import StreamBuilder


def transform(model, ctx, plan, interval, vector_len, seq_alloc):
    """One invocation through *model*'s transform, into a builder;
    returns the builder."""
    out = StreamBuilder(model.dataflow_latency)
    model.transform_interval(ctx, plan, interval, vector_len, seq_alloc,
                             out)
    return out


def transformed_rows(model, ctx, plan, interval, vector_len, seq_alloc):
    """The transformed stream of one invocation, as a DynInst list."""
    return transform(model, ctx, plan, interval, vector_len,
                     seq_alloc).rows
