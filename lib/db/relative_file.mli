(** Relative files: records addressed by slot number.

    Slots are grouped into fixed-size segments, one block per segment,
    allocated lazily. Reading an empty or never-written slot returns
    [None]. *)

type t

val create : Store.t -> name:string -> slots_per_segment:int -> t

val read_slot : t -> int -> string option

val write_slot : t -> int -> string -> string option
(** Returns the previous contents (the before-image). *)

val delete_slot : t -> int -> string option
(** Empty the slot; returns the previous contents. *)

val record_count : t -> int

val highest_slot : t -> int
(** Largest slot ever written; [-1] when empty. *)

val iter : t -> (int -> string -> unit) -> unit
(** Visit occupied slots in ascending order. *)

val snapshot : t -> unit -> unit
(** Capture file metadata (segment map, counters) for archiving; the thunk
    restores it. *)
