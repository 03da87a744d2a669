type t = {
  home : Tandem_os.Ids.node_id;
  cpu : Tandem_os.Ids.cpu_id;
  seq : int;
  rendered : string;
}

let make ~home ~cpu ~seq =
  let rendered =
    String.concat "." [ Int.to_string home; Int.to_string cpu; Int.to_string seq ]
  in
  { home; cpu; seq; rendered }

let home t = t.home

let equal a b = a.home = b.home && a.cpu = b.cpu && a.seq = b.seq

let compare a b =
  match Int.compare a.home b.home with
  | 0 -> (
      match Int.compare a.cpu b.cpu with
      | 0 -> Int.compare a.seq b.seq
      | c -> c)
  | c -> c

let to_string t = t.rendered

let is_digit c = c >= '0' && c <= '9'

(* [s.[i..j-1]] is exactly what [Int.to_string] renders for its value: "0",
   or an optional '-' and a digit string with no leading zero. At most 18
   digits, so the value cannot overflow. *)
let canonical_field s i j =
  let first = if i < j && s.[i] = '-' then i + 1 else i in
  let digits = j - first in
  digits >= 1 && digits <= 18
  && (s.[first] <> '0' || (digits = 1 && first = i))
  &&
  let rec all_digits k = k >= j || (is_digit s.[k] && all_digits (k + 1)) in
  all_digits first

let field_value s i j =
  let negative = s.[i] = '-' in
  let rec go k acc =
    if k >= j then acc else go (k + 1) ((acc * 10) + Char.code s.[k] - 48)
  in
  let magnitude = go (if negative then i + 1 else i) 0 in
  if negative then -magnitude else magnitude

let of_string s =
  let n = String.length s in
  match String.index_opt s '.' with
  | None -> None
  | Some d1 -> (
      match String.index_from_opt s (d1 + 1) '.' with
      | None -> None
      | Some d2 ->
          if String.index_from_opt s (d2 + 1) '.' <> None then None
          else if
            canonical_field s 0 d1
            && canonical_field s (d1 + 1) d2
            && canonical_field s (d2 + 1) n
          then
            Some
              {
                home = field_value s 0 d1;
                cpu = field_value s (d1 + 1) d2;
                seq = field_value s (d2 + 1) n;
                rendered = s;
              }
          else
            (* Any other form [int_of_string_opt] accepts ("07", "+7",
               "0x7", "7_0", or more than 18 digits) parses as before and
               is rendered canonically. *)
            let field i j = int_of_string_opt (String.sub s i (j - i)) in
            match (field 0 d1, field (d1 + 1) d2, field (d2 + 1) n) with
            | Some home, Some cpu, Some seq -> Some (make ~home ~cpu ~seq)
            | _ -> None)

let pp formatter t = Format.pp_print_string formatter t.rendered
