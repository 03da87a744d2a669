type t = { home : int; cpu : int; seq : int; rendered : string }

let field_bound = 1 lsl 10

let seq_bound = 1 lsl 30

let make ~home ~cpu ~seq =
  if
    home < 0 || home >= field_bound || cpu < 0 || cpu >= field_bound || seq < 0
    || seq >= seq_bound
  then
    invalid_arg
      (Printf.sprintf "Transid.make: home %d, cpu %d or seq %d out of bounds"
         home cpu seq);
  let rendered =
    String.concat "." [ Int.to_string home; Int.to_string cpu; Int.to_string seq ]
  in
  { home; cpu; seq; rendered }

let home t = t.home

let equal a b = a == b || (a.seq = b.seq && a.cpu = b.cpu && a.home = b.home)

let compare a b =
  match Int.compare a.home b.home with
  | 0 -> (
      match Int.compare a.cpu b.cpu with
      | 0 -> Int.compare a.seq b.seq
      | c -> c)
  | c -> c

let to_string t = t.rendered

let pp formatter t = Format.pp_print_string formatter t.rendered
