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

let grow a i =
  let n = Array.length a in
  if i < n then a
  else begin
    let wider = Array.make (max (i + 1) (2 * n)) None in
    Array.blit a 0 wider 0 n;
    wider
  end
