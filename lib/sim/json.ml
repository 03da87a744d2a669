type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

let escape_string buffer s =
  Buffer.add_char buffer '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.add_char buffer '"'

(* Floats must round-trip exactly and always be valid JSON: a whole number
   is printed with a trailing ".0" (OCaml's "1." is not JSON); anything else
   uses %.17g, which reparses to the identical double. Non-finite values
   have no JSON spelling and become null. *)
let add_float buffer f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buffer (Printf.sprintf "%.1f" f)
  else Buffer.add_string buffer (Printf.sprintf "%.17g" f)

let rec write ~indent ~level buffer json =
  let pad n =
    if indent > 0 then begin
      Buffer.add_char buffer '\n';
      Buffer.add_string buffer (String.make (indent * n) ' ')
    end
  in
  let sequence open_ close items write_item =
    Buffer.add_char buffer open_;
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buffer ',';
        pad (level + 1);
        write_item item)
      items;
    if items <> [] then pad level;
    Buffer.add_char buffer close
  in
  match json with
  | Null -> Buffer.add_string buffer "null"
  | Bool b -> Buffer.add_string buffer (if b then "true" else "false")
  | Int i -> Buffer.add_string buffer (string_of_int i)
  | Float f when not (Float.is_finite f) -> Buffer.add_string buffer "null"
  | Float f -> add_float buffer f
  | String s -> escape_string buffer s
  | List items ->
      sequence '[' ']' items (write ~indent ~level:(level + 1) buffer)
  | Obj fields ->
      sequence '{' '}' fields (fun (key, value) ->
          escape_string buffer key;
          Buffer.add_string buffer (if indent > 0 then ": " else ":");
          write ~indent ~level:(level + 1) buffer value)

let to_string ?(pretty = false) json =
  let buffer = Buffer.create 1024 in
  write ~indent:(if pretty then 2 else 0) ~level:0 buffer json;
  Buffer.contents buffer

let pp formatter json = Format.pp_print_string formatter (to_string ~pretty:true json)

(* ------------------------------------------------------------------ *)
(* Parsing: a plain recursive-descent parser over the input string. *)

exception Parse_error of string

let of_string text =
  let position = ref 0 in
  let len = String.length text in
  let fail message = raise (Parse_error message) in
  let peek () = if !position < len then Some text.[!position] else None in
  let advance () = incr position in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected %c, got %c" c got)
    | None -> fail (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word value =
    if
      !position + String.length word <= len
      && String.sub text !position (String.length word) = word
    then begin
      position := !position + String.length word;
      value
    end
    else fail ("invalid literal at offset " ^ string_of_int !position)
  in
  let parse_string () =
    expect '"';
    let buffer = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buffer '"'
              | '\\' -> Buffer.add_char buffer '\\'
              | '/' -> Buffer.add_char buffer '/'
              | 'b' -> Buffer.add_char buffer '\b'
              | 'f' -> Buffer.add_char buffer '\012'
              | 'n' -> Buffer.add_char buffer '\n'
              | 'r' -> Buffer.add_char buffer '\r'
              | 't' -> Buffer.add_char buffer '\t'
              | 'u' ->
                  if !position + 4 > len then fail "truncated \\u escape";
                  let hex = String.sub text !position 4 in
                  position := !position + 4;
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with _ -> fail ("bad \\u escape " ^ hex)
                  in
                  Buffer.add_utf_8_uchar buffer
                    (match Uchar.of_int code with
                    | u -> u
                    | exception Invalid_argument _ -> Uchar.rep)
              | c -> fail (Printf.sprintf "bad escape \\%c" c));
              loop ())
      | Some c ->
          advance ();
          Buffer.add_char buffer c;
          loop ()
    in
    loop ();
    Buffer.contents buffer
  in
  let parse_number () =
    let start = !position in
    let is_float = ref false in
    let rec loop () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
          advance ();
          loop ()
      | Some ('.' | 'e' | 'E') ->
          is_float := true;
          advance ();
          loop ()
      | _ -> ()
    in
    loop ();
    let token = String.sub text start (!position - start) in
    if !is_float then
      match float_of_string_opt token with
      | Some f -> Float f
      | None -> fail ("bad number " ^ token)
    else
      match int_of_string_opt token with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt token with
          | Some f -> Float f
          | None -> fail ("bad number " ^ token))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let item = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (item :: acc)
            | Some ']' ->
                advance ();
                List.rev (item :: acc)
            | _ -> fail "expected , or ] in array"
          in
          List (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let value = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((key, value) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, value) :: acc)
            | _ -> fail "expected , or } in object"
          in
          Obj (fields [])
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let value = parse_value () in
    skip_ws ();
    if !position < len then fail "trailing garbage after value";
    value
  with
  | value -> Ok value
  | exception Parse_error message -> Error message

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_list = function List items -> Some items | _ -> None

let to_string_value = function String s -> Some s | _ -> None
