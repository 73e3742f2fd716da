"""A declarative DSL for TDG transforms (paper section 5.5).

The paper notes its transforms are "simply written as short functions
in C/C++.  A DSL to specify these transforms could make the TDG
framework even more productive for designers."  This module implements
that future-work item: transforms are declared as *rules* — a static
pattern over the program IR plus a rewrite action over the dynamic
trace — and a generic engine performs the analysis and graph
rewriting.

Example — the paper's fma transform in three lines::

    rule = (Rule("fma")
            .match(op(Opcode.FMUL).single_use()
                   .feeding(op(Opcode.FADD)))
            .fuse(Opcode.FMA, latency=4))
    out = StreamBuilder()
    DslTransform(program, [rule]).apply(stream, out)

Supported actions, each a set of
:meth:`~repro.tdg.fastpath.StreamBuilder.emit` fields, as the BSA
transforms write them:

- ``fuse(opcode, latency)``   — collapse a matched producer/consumer
  chain into one instruction of *opcode* (chain-head retyped, tail
  elided, dependences re-attached);
- ``retype(opcode, latency)`` — rewrite a single matched op's type;
- ``offload(accel, latency)`` — move a matched op onto an accelerator
  (bypasses the core front-end in the timing engine).
"""

from collections import namedtuple

from repro.accel.base import map_deps, remap
from repro.isa.opcodes import Opcode, fu_latency


class OpPattern:
    """Matches one static instruction by opcode and predicates."""

    def __init__(self, opcodes):
        if isinstance(opcodes, Opcode):
            opcodes = (opcodes,)
        self.opcodes = frozenset(opcodes)
        self.require_single_use = False
        self.predicates = []
        self.consumer = None     # chained OpPattern (dataflow edge)

    def single_use(self):
        """Require the matched op's result to have exactly one use
        inside its basic block."""
        self.require_single_use = True
        return self

    def where(self, predicate):
        """Add an arbitrary predicate on the static Instruction."""
        self.predicates.append(predicate)
        return self

    def feeding(self, consumer):
        """Chain: this op's result feeds *consumer* (same block)."""
        self.consumer = consumer
        return self

    # -- static matching --------------------------------------------------
    def matches_inst(self, inst):
        if inst.opcode not in self.opcodes:
            return False
        return all(predicate(inst) for predicate in self.predicates)

    def chain(self):
        """The chained patterns, this one first."""
        nodes = [self]
        while nodes[-1].consumer is not None:
            nodes.append(nodes[-1].consumer)
        return tuple(nodes)

    def chain_length(self):
        return len(self.chain())


def op(opcodes):
    """Shorthand constructor for an :class:`OpPattern`."""
    return OpPattern(opcodes)


class Rule:
    """One named rewrite rule: a pattern plus an action."""

    def __init__(self, name):
        self.name = name
        self.pattern = None
        self.action = None
        #: The action's :meth:`~repro.tdg.fastpath.StreamBuilder.emit`
        #: fields.
        self.fields = {}

    def match(self, pattern):
        self.pattern = pattern
        return self

    def fuse(self, opcode, latency=None):
        self.action = "fuse"
        self.fields = {"opcode": opcode,
                       "lat_override": latency or fu_latency(opcode)}
        return self

    def retype(self, opcode, latency=None):
        self.action = "retype"
        self.fields = {"opcode": opcode,
                       "lat_override": latency or fu_latency(opcode)}
        return self

    def offload(self, accel, latency=1):
        self.action = "offload"
        self.fields = {"accel": accel, "lat_override": latency,
                       "mispredicted": False, "icache_lat": 0}
        return self

    def _validate(self):
        if self.pattern is None or self.action is None:
            raise ValueError(
                f"rule {self.name!r} needs both match() and an action")
        if self.action in ("retype", "offload") \
                and self.pattern.consumer is not None:
            raise ValueError(
                f"rule {self.name!r}: {self.action} applies to single "
                "ops, not chains")

    def __repr__(self):
        return f"<Rule {self.name}: {self.action}>"


#: Analyzer output: one matched static chain's rule and uids, head
#: first.
_ChainPlan = namedtuple("_ChainPlan", ("rule", "uids"))


class DslTransform:
    """Generic analyzer + transformer driven by declarative rules."""

    def __init__(self, program, rules):
        self.program = program
        self.rules = list(rules)
        for rule in self.rules:
            rule._validate()
        self.plans = self._analyze()
        #: uid -> plan, for each uid participating in a chain.
        self._plan_of = {}
        for plan in self.plans:
            for uid in plan.uids:
                self._plan_of[uid] = plan

    # -- analyzer ---------------------------------------------------------
    def _analyze(self):
        """Each rule in declaration order claims, block by block, the
        disjoint chains it matches, as in paper Fig. 4(c): a chain is
        anchored at its last op, and each op's producers are tried in
        operand order."""
        plans = []
        claimed = set()
        for function in self.program.functions.values():
            for block in function.blocks:
                use_counts, producers = self._block_dataflow(block)
                for rule in self.rules:
                    nodes = rule.pattern.chain()
                    for inst in block:
                        chain = self._match_chain(
                            nodes, inst, use_counts, producers, claimed)
                        if chain:
                            plans.append(_ChainPlan(rule, tuple(chain)))
                            claimed.update(chain)
        return plans

    @staticmethod
    def _block_dataflow(block):
        """Per-block def-use: uid -> use count, and uid -> the in-block
        producer of each source operand, in operand order."""
        use_counts = {}
        producers = {}
        last_writer = {}
        for inst in block:
            found = []
            for reg in inst.srcs:
                producer = last_writer.get(reg)
                if producer is not None:
                    use_counts[producer.uid] = \
                        use_counts.get(producer.uid, 0) + 1
                    found.append(producer)
            producers[inst.uid] = found
            if inst.dest is not None:
                last_writer[inst.dest] = inst
        return use_counts, producers

    def _match_chain(self, nodes, inst, use_counts, producers, claimed):
        """uids, head first, of an unclaimed chain matching the patterns
        *nodes* that ends at *inst*; None if there is none."""
        node = nodes[-1]
        if inst.uid in claimed or not node.matches_inst(inst):
            return None
        if node.require_single_use \
                and use_counts.get(inst.uid, 0) != 1:
            return None
        if len(nodes) == 1:
            return [inst.uid]
        for producer in producers[inst.uid]:
            chain = self._match_chain(nodes[:-1], producer, use_counts,
                                      producers, claimed)
            if chain is not None:
                return chain + [inst.uid]
        return None

    # -- transformer --------------------------------------------------------
    def apply(self, stream, out):
        """Rewrite the dynamic instruction *stream* per the matched plans
        into *out*, a :class:`~repro.tdg.fastpath.StreamBuilder`.

        Every instruction's deps are renamed through the elided seq ->
        chain-head seq map.  A planned instruction is emitted with its
        rule's fields; a later member of a fused chain merges its deps
        into the head's row
        (:meth:`~repro.tdg.fastpath.StreamBuilder.merge_deps`) and is
        elided.
        """
        open_chains = {}  # next member's uid -> (head row, head seq,
        #                   that member's position in the chain)
        redirect = {}     # elided seq -> chain-head seq
        for dyn in stream:
            uid = dyn.uid
            plan = self._plan_of.get(uid)
            if plan is None:
                remap(dyn, redirect, out)
                continue
            uids = plan.uids
            if uid != uids[0]:
                state = open_chains.pop(uid, None)
                if state is None:
                    # Dynamic order diverged from the static chain
                    # (e.g. partial execution): keep the instruction.
                    remap(dyn, redirect, out)
                    continue
                row, head_seq, position = state
                out.merge_deps(row, map_deps(dyn, redirect))
                redirect[dyn.seq] = head_seq
                if position + 1 < len(uids):
                    open_chains[uids[position + 1]] = \
                        (row, head_seq, position + 1)
                continue
            row = out.emit(dyn, src_deps=map_deps(dyn, redirect),
                           mem_dep=redirect.get(dyn.mem_dep, dyn.mem_dep),
                           **plan.rule.fields)
            if len(uids) > 1:
                open_chains[uids[1]] = (row, dyn.seq, 1)

    def __repr__(self):
        return (f"<DslTransform {len(self.rules)} rules, "
                f"{len(self.plans)} matched chains>")


def fma_rule():
    """The paper's running example, declared in the DSL."""
    return (Rule("fma")
            .match(op(Opcode.FMUL).single_use()
                   .feeding(op(Opcode.FADD)))
            .fuse(Opcode.FMA, latency=fu_latency(Opcode.FMA)))
