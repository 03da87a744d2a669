(** Group commit: batched forced writes to one volume.

    Many transactions commit concurrently, and each needs "my log records
    are on oxide" — but they do not each need their own physical write. The
    daemon runs one force at a time; every requester that arrives while a
    force is in flight is satisfied by the *next* one, so a single physical
    write covers a whole batch. The daemon is a free-standing fiber owned by
    the trail (not by any process), so processor failures cannot strand the
    queue; a killed requester is simply skipped when its batch completes. *)

type t

val create : ?window:Tandem_sim.Sim_time.span -> Volume.t -> t
(** [window] (default 0) is the group-commit accumulation window: after the
    first wish wakes the daemon it lingers that long before issuing the
    physical write, so concurrent forces arriving just apart still share
    it. Batch counts are exported as [disk.force_batches] and
    [disk.force_batch_size]. *)

val force : t -> unit
(** Return once a physical forced write that *started after this call*
    has completed. Must run inside a fiber. *)

val physical_forces : t -> int
(** Test hook: forces actually issued (≤ the number of {!force} calls). *)
