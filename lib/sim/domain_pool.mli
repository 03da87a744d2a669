(** Fixed pool of OCaml 5 domains for fanning out independent simulations.

    Every simulation instance is a sealed world — engine, cluster, metrics
    registry, RNG streams all hang off one {!Engine.t} — so a batch of bench
    points, chaos scenario×seed runs or property instances is embarrassingly
    parallel. This module runs such batches on real domains while keeping
    the serial path byte-for-byte identical: with [jobs <= 1] no domain is
    ever spawned and [map] is exactly [List.map] in the calling domain.

    Tasks must not share mutable state (the no-shared-state audit in
    docs/PERFORMANCE.md lists what was fixed to make that true) and must not
    print — collect output in the result value and render it from the
    calling domain, in task order, after the join. *)

val jobs_from_env : unit -> int
(** The [TANDEM_JOBS] environment variable as a job count; [1] (serial)
    when unset or empty. Raises [Invalid_argument] on a value that is not
    a positive integer. *)

val map : ?chunk:int -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to every item and returns the results
    in item order. [jobs <= 1] is plain [List.map] — same domain, same
    order, no threads. Otherwise [min jobs (length items)] domains
    (including the calling one) drain a shared index counter in chunks of
    [chunk] (default 1) items; each result slot is written by exactly one
    worker. On the parallel path, exceptions raised by [f] are captured
    per task with their backtrace; after every task has been attempted,
    the exception of the lowest-indexed failed task is re-raised in the
    calling domain (serially, [List.map] semantics make that the first
    failed task, raised immediately).
    [f] runs in an arbitrary domain, so it must not touch mutable state
    outside its own task. *)
