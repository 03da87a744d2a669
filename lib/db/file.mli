(** A file partition as it exists on one volume: the structured organization
    plus its locally-maintained secondary indices.

    Every mutation returns a {!change} carrying the before- and after-images
    of the affected record — the raw material of TMF audit records. The
    inverse operations {!apply_undo} (transaction backout) and {!apply_redo}
    (ROLLFORWARD) consume changes and keep the indices consistent. *)

type t

type change = {
  file : string;
  key : Key.t;
  before : string option;  (** [None] for an insert. *)
  after : string option;  (** [None] for a delete. *)
}

val create : Store.t -> Schema.file_def -> t
(** Instantiate (one partition of) a file on a volume's store. *)

val def : t -> Schema.file_def

val file_name : t -> string

val read : t -> Key.t -> string option

val insert : t -> Key.t -> string -> (change, [ `Duplicate | `Bad_key ]) result
(** For relative files the key must be a decimal slot number; for
    entry-sequenced files use {!append}. *)

val load : (Key.t * t) list -> (Key.t * string) list -> unit
(** [load partitions rows] bulk-loads set-up data into a key-sequenced file
    without secondary indices. [partitions] pairs each partition with its
    low key, ascending as in {!Schema.file_def}; a row goes to the last
    partition whose low key is not above it. Each touched partition's
    store runs with charging off, is loaded by one {!Btree.bulk_load}, and
    has its disc image copied once; charging is back on when [load]
    returns or raises. The blocks are those per-row {!insert}s would build.

    Raises [Invalid_argument] naming the file, before loading anything,
    when the rows do not strictly ascend or the file is indexed or not
    key-sequenced; {!Btree.bulk_load} refuses a row not above the keys
    already in its partition. *)

val append : t -> string -> (Key.t * change, [ `Wrong_organization ]) result
(** Entry-sequenced insert: the file assigns the next entry number. *)

val update : t -> Key.t -> string -> (change, [ `Not_found | `Bad_key ]) result

val delete : t -> Key.t -> (change, [ `Not_found | `Bad_key ]) result

val apply_undo : t -> change -> unit
(** Restore the before-image (insert→delete, update→old value,
    delete→re-insert), maintaining indices. Idempotent. *)

val apply_redo : t -> change -> unit
(** Re-impose the after-image. Idempotent. *)

val next_after : t -> Key.t -> (Key.t * string) option

val lookup_index : t -> index:string -> Key.t -> Key.t list
(** Primary keys matching an alternate key ({!Schema.index_def} name). *)

val count : t -> int

val iter : t -> (Key.t -> string -> unit) -> unit

val snapshot : t -> unit -> unit
(** Capture the file's metadata (organization internals and indices) for a
    ROLLFORWARD archive; the thunk restores it. Block contents are handled
    by the store's own snapshot. *)

val check_invariants : t -> (unit, string) result
(** Test hook: structural audit of the organization and of index consistency
    (every record indexed exactly once per applicable index, no dangling index
    entries). *)
