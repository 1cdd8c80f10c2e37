"""Real lock-free data structures over a cooperative-interleaving VM.

The paper's implementation uses hardware CAS (QNX on a Pentium-III) and
the Michael & Scott lock-free queue [21].  Python's GIL makes native-
thread lock-free timing meaningless, so this package executes the *actual
published algorithms* — Michael–Scott queue, Treiber stack — over a
deterministic virtual machine in which every shared-memory operation
(load, store, CAS) is an explicit preemption point.  The VM can interleave
fibers round-robin, randomly (seeded), or adversarially, and the
structures count their CAS retries, which lets tests relate observed
retries to interference exactly as the paper's analysis does.

Linearizability of concurrent histories is checked with a Wing–Gong style
exhaustive checker against sequential reference specifications.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.lockfree.interleave": (
        "Fiber", "VM", "adversarial_scheduler", "random_scheduler",
        "round_robin_scheduler",
    ),
    "repro.lockfree.atomics": ("AtomicRef",),
    "repro.lockfree.ms_queue": ("EMPTY", "MSQueue"),
    "repro.lockfree.linked_list": ("LockFreeLinkedList",),
    "repro.lockfree.nbw": ("NBWRegister",),
    "repro.lockfree.waitfree_register": ("WaitFreeRegister",),
    "repro.lockfree.treiber_stack": ("STACK_EMPTY", "TreiberStack"),
    "repro.lockfree.linearizability": (
        "Operation", "SeqQueue", "SeqStack", "is_linearizable", "recorded",
    ),
})
