(** On-"disc" block formats.

    Every structured-file organization stores its blocks through the same
    {!Store}; this module centralizes the block layout the way a real disc
    format does. All arrays inside a block are treated as immutable:
    modifying a block means writing a fresh value under the same block
    number, which is what gives the store its crash semantics (the flushed
    image cannot alias in-memory state). *)

type t =
  | Btree_leaf of {
      keys : Key.t array;
      payloads : string array;
      next_leaf : int option;  (** Sibling link for range scans. *)
    }
  | Btree_internal of {
      separators : Key.t array;  (** [n] separators split [n+1] children. *)
      children : int array;
    }
  | Relative_segment of {
      base_slot : int;
      slots : string option array;
    }

val size_bytes : t -> int
(** Approximate serialized size, for compression statistics and audit-volume
    accounting. *)

val describe : t -> string
