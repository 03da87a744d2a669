(** Transaction identifiers.

    A transid is a sequence number, qualified by the processor in which
    BEGIN-TRANSACTION was called, qualified by the network node that
    originated the transaction — its *home* node. It identifies the
    transaction's update group network-wide. *)

type t = private {
  home : Tandem_os.Ids.node_id;
  cpu : Tandem_os.Ids.cpu_id;
  seq : int;
  rendered : string;  (** ["home.cpu.seq"], fixed when the transid is made *)
}

val make : home:Tandem_os.Ids.node_id -> cpu:Tandem_os.Ids.cpu_id -> seq:int -> t
(** Renders the string form once; every later {!to_string} returns it. *)

val home : t -> Tandem_os.Ids.node_id

val equal : t -> t -> bool
(** Test hook: structural equality. *)

val compare : t -> t -> int
(** Test hook: a total order consistent with {!equal}. *)

val to_string : t -> string
(** Rendered as ["node.cpu.seq"]. Messages carry the transid itself; this
    string form is for the audit and lock layers, which know nothing of
    TMF, and for the keys of every transaction table. The string is
    rendered once, by {!make} or {!of_string}: this is O(1), allocates
    nothing, and returns the same physical string every time. *)

val of_string : string -> t option
(** Parses ["node.cpu.seq"]. Canonical decimal input (as {!to_string}
    renders it) is kept as the transid's rendering without copying; any
    other field syntax that [int_of_string_opt] accepts (["07"], ["+7"],
    ["0x7"]) parses to the same transid, rendered canonically. [None] if
    the input is not three such fields separated by dots. *)

val pp : Format.formatter -> t -> unit
