(** On-"disc" block formats.

    Every structured-file organization stores its blocks through the same
    {!Store}; this module centralizes the block layout the way a real disc
    format does. All arrays inside a block are treated as immutable:
    modifying a block means writing a fresh value under the same block
    number, which is what gives the store its crash semantics (the flushed
    image cannot alias in-memory state).

    A B-tree block keeps its keys (or separators) front-coded in one
    string, {!Packed_keys}; a leaf's payloads stay one string each, so a
    payload shared by many records is stored once. *)

type t =
  | Btree_leaf of {
      keys : Packed_keys.t;
      payloads : string array;  (** One per key, in key order. *)
      next_leaf : int;
          (** Sibling link for range scans; {!no_leaf} for the last leaf. *)
    }
  | Btree_internal of {
      separators : Packed_keys.t;  (** [n] separators split [n+1] children. *)
      children : int array;
    }
  | Relative_segment of {
      base_slot : int;
      slots : string option array;
    }

val no_leaf : int
(** [-1]: the [next_leaf] of the rightmost leaf. *)
