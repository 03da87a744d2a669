(** Tables by key: hash tables specialised to one key type, and option
    arrays indexed by a small id.

    Each hash table is [Hashtbl.MakeSeeded] over {!Hashtbl.seeded_hash} and the key
    type's own equality, so a lookup makes no polymorphic compare. The
    hash is the generic table's and [create] draws its seed the same way
    ([?random] defaults to {!Hashtbl.is_randomized}), so a typed table fed
    the same operations keeps the same buckets and folds in the same order
    as a generic [Hashtbl.t] — also when [OCAMLRUNPARAM=R] randomizes
    both. *)

module Make (Key : sig
  type t

  val equal : t -> t -> bool
end) : Hashtbl.SeededS with type key = Key.t

module Int : Hashtbl.SeededS with type key = int

module String : Hashtbl.SeededS with type key = string

val grow : 'a option array -> int -> 'a option array
(** [grow a i] is [a] when [i] indexes it, else a copy of [a] padded with
    [None] to length [max (i + 1) (2 * Array.length a)]: a table by a
    small non-negative id, widened as ids arrive. *)
