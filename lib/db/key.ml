type t = string

let compare = String.compare

let equal = String.equal

let min_key = ""

(* "00" to "99": the two digits of [i] at [2 * i]. *)
let digit_pairs =
  String.init 200 (fun i ->
      let pair = i / 2 in
      Char.chr (Char.code '0' + if i mod 2 = 0 then pair / 10 else pair mod 10))

let rec digits n count = if n < 10 then count else digits (n / 10) (count + 1)

(* Digits of [n >= 0] right to left into [buffer.(0 .. i)], two a step.
   Every index is in range: [i] counts down inside the buffer and a pair
   index is at most 199. *)
let rec fill buffer n i =
  if i >= 1 then begin
    let pair = 2 * (n mod 100) in
    Bytes.unsafe_set buffer i (String.unsafe_get digit_pairs (pair + 1));
    Bytes.unsafe_set buffer (i - 1) (String.unsafe_get digit_pairs pair);
    fill buffer (n / 100) (i - 2)
  end
  else if i = 0 then
    Bytes.unsafe_set buffer 0
      (String.unsafe_get digit_pairs ((2 * (n mod 10)) + 1))

(* [Printf.sprintf "%012d" n] without the format interpreter, and without a
   closure per call: every key of a bulk load goes through here. *)
let of_int n =
  if n < 0 then Printf.sprintf "%012d" n
  else begin
    let width = if n < 1_000_000_000_000 then 12 else digits n 1 in
    let buffer = Bytes.create width in
    fill buffer n (width - 1);
    Bytes.unsafe_to_string buffer
  end

let to_int t = int_of_string_opt t

(* Eight bytes a step while both keys have them, then byte by byte; no
   closure and no polymorphic [min], since the bulk loader calls this once a
   row. *)
let rec common_prefix a b i limit =
  if i + 8 <= limit && String.get_int64_ne a i = String.get_int64_ne b i then
    common_prefix a b (i + 8) limit
  else common_bytes a b i limit

and common_bytes a b i limit =
  if i < limit && a.[i] = b.[i] then common_bytes a b (i + 1) limit else i

let common_prefix_length a b =
  common_prefix a b 0 (Int.min (String.length a) (String.length b))

let pp formatter t = Format.fprintf formatter "%S" t
