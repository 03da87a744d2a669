(** A FIFO mutex for fibers.

    Used to serialize data access inside a DISCPROCESS (and the baseline
    manager): a structured-file operation spans several block I/Os, each of
    which suspends the fiber, and interleaving two mutations of the same
    structure between those suspensions would lose updates — the real
    DISCPROCESS performs data operations one at a time. Lock-manager waits
    happen *before* taking the mutex, so lock queues never hold up the
    volume. *)

type t

val create : unit -> t

val with_lock : t -> (unit -> 'a) -> 'a
(** [with_lock t f] runs [f] under the mutex, releasing on any exit. *)

val locked : t -> bool
(** Test hook: whether some fiber holds the mutex. *)
