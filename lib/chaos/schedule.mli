(** A fault schedule: the timed list of faults a scenario injects.

    A schedule is generated *before* the run from the scenario's seeded RNG,
    so the sequence of (instant, fault) pairs is a pure function of the seed
    — the determinism contract ([tandem chaos] with the same seed must
    reproduce the identical schedule and verdict) is checked byte-for-byte
    against {!to_string}. *)

type t

val empty : t

val add : t -> at_ms:int -> Fault.t -> t
(** Append a fault at the given simulated instant (milliseconds from the
    start of the run). *)

val merge : t -> t -> t
(** Union of the two schedules. *)

val entries : t -> (int * Fault.t) list
(** All entries sorted by instant; ties keep insertion order, so equal
    seeds yield equal orderings. *)

val count : t -> int

val kind_counts : t -> (string * int) list
(** Number of entries per {!Fault.kind}, sorted by kind slug. *)

val to_string : t -> string
(** Byte-stable rendering: one ["%6dms %s"] line per entry in {!entries}
    order. Two schedules are the same exactly when their renderings are
    equal. *)
