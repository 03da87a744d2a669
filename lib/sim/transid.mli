(** Transaction identifiers.

    A transid is a sequence number, qualified by the processor in which
    BEGIN-TRANSACTION was called, qualified by the network node that
    originated the transaction — its *home* node. It identifies the
    transaction's update group network-wide.

    It lives here, in the simulation layer, because it is the one name of a
    transaction that every layer below TMF shares: the audit records and
    trails, the lock tables' owners, the monitor trail and the spans all
    take it. TMF re-exports it as [Tmf.Transid].

    The fields are bounded so that a transid packs into one int (home and
    cpu 10 bits each, seq 30 bits), as the monitor trail stores it: {!make}
    refuses anything outside them. There is no parser: a transid is made
    from its three numbers, and its string form is output only. *)

type t = private {
  home : int;  (** 0 .. 1023 *)
  cpu : int;  (** 0 .. 1023 *)
  seq : int;  (** 0 .. 2{^30} − 1 *)
  rendered : string;  (** ["home.cpu.seq"], fixed when the transid is made *)
}

val make : home:int -> cpu:int -> seq:int -> t
(** Renders the string form once; every later {!to_string} returns it.
    Raises [Invalid_argument] if a field lies outside its bounds. *)

val home : t -> int

val equal : t -> t -> bool
(** Structural equality. *)

val compare : t -> t -> int
(** Test hook: a total order consistent with {!equal}. *)

val to_string : t -> string
(** Rendered as ["home.cpu.seq"]: the keys of every transaction table and
    the id of its span. The string is rendered once, by {!make}: this is
    O(1), allocates nothing, and returns the same physical string every
    time. *)

val pp : Format.formatter -> t -> unit
