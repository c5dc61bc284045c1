"""watchstack: shadow stack protection built on data watchpoints.

A deterministic little Thumb-style machine with a watchpoint unit, an
assembler for a small instruction subset, an instrumentation pass that
rewrites prologues and epilogues to mirror return addresses into a
write-protected shadow region, and the runtime that arms the
protection.
"""

__version__ = "0.1.0"
