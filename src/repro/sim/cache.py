"""Set-associative cache hierarchy with LRU replacement.

Memory is word-addressed; a line is 8 words (the analog of 64-byte
lines with 8-byte words).  The hierarchy mirrors the paper's common
configuration: 32KiB 2-way L1I, 64KiB L1D (4-cycle), 8-way 2MB L2
(22-cycle hit), plus a flat DRAM latency.
"""

#: Words per cache line throughout the system.
LINE_WORDS = 8


class CacheConfig:
    """Geometry + latency for one cache level."""

    def __init__(self, size_words, ways, hit_latency, name="cache"):
        if size_words % (ways * LINE_WORDS):
            raise ValueError("size must be a multiple of ways * line size")
        self.size_words = size_words
        self.ways = ways
        self.hit_latency = hit_latency
        self.name = name
        self.num_sets = size_words // (ways * LINE_WORDS)

    def __repr__(self):
        return (f"<CacheConfig {self.name}: {self.size_words}w "
                f"{self.ways}-way, {self.hit_latency}cyc>")


class Cache:
    """One level of set-associative, write-allocate, LRU cache."""

    def __init__(self, config):
        self.config = config
        # Each set is an ordered list of line tags; index 0 = MRU.
        self._sets = [[] for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0

    def lookup(self, addr):
        """Access *addr* (word).  Returns True on hit; updates LRU and
        allocates on miss."""
        line = addr // LINE_WORDS
        set_index = line % self.config.num_sets
        tag = line // self.config.num_sets
        ways = self._sets[set_index]
        if ways and ways[0] == tag:
            # Already the MRU way: the LRU order stays as it is.
            self.hits += 1
            return True
        if tag in ways:
            ways.remove(tag)
            ways.insert(0, tag)
            self.hits += 1
            return True
        self.misses += 1
        ways.insert(0, tag)
        if len(ways) > self.config.ways:
            ways.pop()
        return False

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        total = self.accesses
        return self.misses / total if total else 0.0

    def reset_stats(self):
        self.hits = 0
        self.misses = 0


#: Default hierarchy parameters (paper section 4, "General Core
#: Configurations"): 32KiB 2-way L1I / 64KiB 4-way L1D, 4-cycle latency;
#: 2MB 8-way L2 with 22-cycle hit; DRAM at 150 cycles.
DEFAULT_L1I = dict(size_words=4096, ways=2, hit_latency=4, name="l1i")
DEFAULT_L1D = dict(size_words=8192, ways=4, hit_latency=4, name="l1d")
DEFAULT_L2 = dict(size_words=262144, ways=8, hit_latency=22, name="l2")
DEFAULT_DRAM_LATENCY = 150


class CacheHierarchy:
    """L1I + L1D backed by a shared L2 and flat-latency DRAM."""

    def __init__(self, l1i=None, l1d=None, l2=None,
                 dram_latency=DEFAULT_DRAM_LATENCY):
        self.l1i = Cache(CacheConfig(**(l1i or DEFAULT_L1I)))
        self.l1d = Cache(CacheConfig(**(l1d or DEFAULT_L1D)))
        self.l2 = Cache(CacheConfig(**(l2 or DEFAULT_L2)))
        self.dram_latency = dram_latency
        self.dram_accesses = 0

    def _access(self, l1, addr):
        """Returns (latency, level) with level in {'l1','l2','dram'}."""
        if l1.lookup(addr):
            return l1.config.hit_latency, "l1"
        if self.l2.lookup(addr):
            return l1.config.hit_latency + self.l2.config.hit_latency, "l2"
        self.dram_accesses += 1
        latency = (l1.config.hit_latency + self.l2.config.hit_latency
                   + self.dram_latency)
        return latency, "dram"

    def access_data(self, addr):
        """Data-side access (loads and stores share the port model)."""
        return self._access(self.l1d, addr)

    def access_inst(self, addr):
        """Instruction-fetch access."""
        return self._access(self.l1i, addr)

    def warm_instructions(self, count):
        """Pre-touch *count* instruction addresses (sequential-prefetch
        warm-up; the paper fast-forwards past initialization, so
        steady-state runs never see a cold front end)."""
        for addr in range(0, count, LINE_WORDS):
            self.l1i.lookup(addr)
            self.l2.lookup(addr)
        self.l1i.reset_stats()
        self.l2.reset_stats()

    def reset_stats(self):
        self.l1i.reset_stats()
        self.l1d.reset_stats()
        self.l2.reset_stats()
        self.dram_accesses = 0
