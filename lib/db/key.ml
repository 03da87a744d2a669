type t = string

let compare = String.compare

let equal = String.equal

let min_key = ""

(* [Printf.sprintf "%012d" n], without the format interpreter: the digits
   go right to left into a zero-filled buffer of at least 12 bytes. *)
let of_int n =
  if n < 0 then Printf.sprintf "%012d" n
  else begin
    let rec digits n count =
      if n < 10 then count else digits (n / 10) (count + 1)
    in
    let width = max 12 (digits n 1) in
    let buffer = Bytes.make width '0' in
    let rec fill n i =
      if n > 0 then begin
        Bytes.set buffer i (Char.unsafe_chr (Char.code '0' + (n mod 10)));
        fill (n / 10) (i - 1)
      end
    in
    fill n (width - 1);
    Bytes.unsafe_to_string buffer
  end

let to_int t = int_of_string_opt t

let common_prefix_length a b =
  let limit = min (String.length a) (String.length b) in
  let rec scan i = if i < limit && a.[i] = b.[i] then scan (i + 1) else i in
  scan 0

let pp formatter t = Format.fprintf formatter "%S" t
