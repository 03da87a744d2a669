module Make (Key : sig
  type t

  val equal : t -> t -> bool
end) =
Hashtbl.MakeSeeded (struct
  include Key

  let seeded_hash = Hashtbl.seeded_hash
end)

module Int = Make (Int)
module String = Make (String)
