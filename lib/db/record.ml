type fields = (string * string) list

(* Length-prefixed encoding: "<len>:<name><len>:<value>" per field. Any byte
   may appear in names and values, so encoded records nest (the suspense
   file carries whole record payloads inside its own records). *)

let encode fields =
  let buffer = Buffer.create 64 in
  List.iter
    (fun (name, value) ->
      Buffer.add_string buffer (string_of_int (String.length name));
      Buffer.add_char buffer ':';
      Buffer.add_string buffer name;
      Buffer.add_string buffer (string_of_int (String.length value));
      Buffer.add_char buffer ':';
      Buffer.add_string buffer value)
    fields;
  Buffer.contents buffer

let decode payload =
  let limit = String.length payload in
  let parse_chunk position =
    match String.index_from_opt payload position ':' with
    | None -> invalid_arg "Record.decode: missing length delimiter"
    | Some colon -> (
        match int_of_string_opt (String.sub payload position (colon - position)) with
        | None -> invalid_arg "Record.decode: malformed length"
        | Some length ->
            if colon + 1 + length > limit then
              invalid_arg "Record.decode: truncated field";
            (String.sub payload (colon + 1) length, colon + 1 + length))
  in
  let rec parse position acc =
    if position >= limit then List.rev acc
    else begin
      let name, after_name = parse_chunk position in
      let value, after_value = parse_chunk after_name in
      parse after_value ((name, value) :: acc)
    end
  in
  parse 0 []

(* [field] and [int_field] scan the payload in place. The scan takes only
   payloads whose every length is 1 to 18 plain decimal digits and whose
   every chunk fits; on anything else it gives up ([Irregular]) and the
   answer comes from [decode], so both agree with [decode] on every input,
   errors included. *)
exception Irregular

(* The ':' closing the plain decimal length at [position]. *)
let rec length_end payload position i =
  if i >= String.length payload || i - position > 18 then raise Irregular
  else
    match String.unsafe_get payload i with
    | '0' .. '9' -> length_end payload position (i + 1)
    | ':' when i > position -> i
    | _ -> raise Irregular

let rec decimal payload i stop value =
  if i = stop then value
  else
    decimal payload (i + 1) stop
      ((value * 10) + Char.code (String.unsafe_get payload i) - Char.code '0')

(* The chunk whose length starts at [position]: where its bytes start and
   end. *)
let chunk_start payload position = length_end payload position position + 1

let chunk_end payload position =
  let colon = length_end payload position position in
  let stop = colon + 1 + decimal payload position colon 0 in
  if stop > String.length payload then raise Irregular;
  stop

let rec equal_at payload start name i =
  i = String.length name
  || String.unsafe_get payload (start + i) = String.unsafe_get name i
     && equal_at payload start name (i + 1)

(* Where the length of the first [name] field's value starts, or -1; every
   field is checked, as [decode] checks them. *)
let rec value_position payload name position found =
  if position >= String.length payload then found
  else begin
    let name_end = chunk_end payload position in
    let name_start = chunk_start payload position in
    let value_end = chunk_end payload name_end in
    let found =
      if
        found < 0
        && name_end - name_start = String.length name
        && equal_at payload name_start name 0
      then name_end
      else found
    in
    value_position payload name value_end found
  end

let field payload name =
  match value_position payload name 0 (-1) with
  | -1 -> None
  | position ->
      let start = chunk_start payload position in
      Some (String.sub payload start (chunk_end payload position - start))
  | exception Irregular -> List.assoc_opt name (decode payload)

let set_field payload name value =
  let fields = decode payload in
  let replaced = ref false in
  let updated =
    List.map
      (fun (n, v) ->
        if String.equal n name then begin
          replaced := true;
          (n, value)
        end
        else (n, v))
      fields
  in
  encode (if !replaced then updated else updated @ [ (name, value) ])

(* An optional '-' and 1 to 18 decimal digits, read in place; anything
   else goes to [int_of_string_opt]. *)
let int_in payload start stop =
  let negative = start < stop && String.unsafe_get payload start = '-' in
  let digits = if negative then start + 1 else start in
  let rec plain i =
    i = stop
    || match String.unsafe_get payload i with '0' .. '9' -> plain (i + 1) | _ -> false
  in
  if digits < stop && stop - digits <= 18 && plain digits then
    let value = decimal payload digits stop 0 in
    Some (if negative then -value else value)
  else int_of_string_opt (String.sub payload start (stop - start))

let int_field payload name =
  match value_position payload name 0 (-1) with
  | -1 -> None
  | position -> int_in payload (chunk_start payload position) (chunk_end payload position)
  | exception Irregular -> Option.bind (field payload name) int_of_string_opt
