(* Every [val] exported by a [lib] interface is used by the system or
   marked as a test hook: this fails, naming each export that is neither.

     check_exports LIB_DIR -- CALLER_DIR...

   A [val v] of module [M] (declared in [m.mli] under LIB_DIR) counts as
   used when a source file under LIB_DIR or a CALLER_DIR, other than
   [m.ml]/[m.mli] itself, names [M.v] (through any module path, or through
   a local alias [module X = M]), names [v] after opening [M] ([open M],
   [include M], [M.( … )], [M.[ … ]], [M.{ … }]), or passes [M] whole in
   parentheses, as to a functor. Comments, string literals and directories
   named [test] are skipped. A match on words can miss an unused export but
   never flags one used in these ways. An export that only tests read stays
   when its doc comment starts with [Test hook:]. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let is_source name =
  Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

let rec source_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then
           if name = "_build" || name = "test" || name.[0] = '.' then []
           else source_files path
         else if is_source name then [ path ]
         else [])

(* Blank out comments and string literals, keeping every newline so that
   line numbers still match the raw text. *)
let strip text =
  let n = String.length text in
  let out = Bytes.of_string text in
  let blank i j =
    for k = i to j - 1 do
      if Bytes.get out k <> '\n' then Bytes.set out k ' '
    done
  in
  let rec string_end i =
    if i >= n then n
    else
      match text.[i] with
      | '\\' -> string_end (i + 2)
      | '"' -> i + 1
      | _ -> string_end (i + 1)
  in
  let starts_comment i = i + 1 < n && text.[i] = '(' && text.[i + 1] = '*' in
  let rec comment_end depth i =
    if i >= n then n
    else if starts_comment i then comment_end (depth + 1) (i + 2)
    else if i + 1 < n && text.[i] = '*' && text.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment_end (depth - 1) (i + 2)
    else if text.[i] = '"' then comment_end depth (string_end (i + 1))
    else comment_end depth (i + 1)
  in
  let rec go i =
    if i < n then
      if starts_comment i then begin
        let j = comment_end 1 (i + 2) in
        blank i j;
        go j
      end
      else if text.[i] = '"' then begin
        let j = string_end (i + 1) in
        blank i j;
        go j
      end
      (* A character literal: ['\n'], ['\''], ['"'], … *)
      else if text.[i] = '\'' && i + 3 < n && text.[i + 1] = '\\' then
        match String.index_from_opt text (i + 3) '\'' with
        | Some j -> go (j + 1)
        | None -> ()
      else if text.[i] = '\'' && i + 2 < n && text.[i + 2] = '\'' then
        go (i + 3)
      else go (i + 1)
  in
  go 0;
  Bytes.to_string out

type token = Upper of string | Lower of string | Sym of char

let tokens text =
  let n = String.length text in
  let rec word_end j =
    if j < n then
      match text.[j] with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> word_end (j + 1)
      | _ -> j
    else j
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1) acc
      | 'A' .. 'Z' ->
          let j = word_end i in
          go j (Upper (String.sub text i (j - i)) :: acc)
      | 'a' .. 'z' | '_' ->
          let j = word_end i in
          go j (Lower (String.sub text i (j - i)) :: acc)
      | '0' .. '9' -> go (word_end i) acc
      | c -> go (i + 1) (Sym c :: acc)
  in
  go 0 []

(* What one source file says about other modules' values. *)
type caller = {
  path : string;
  qualified : (string * string, unit) Hashtbl.t;  (* (M, v) for M.v *)
  opened : (string, unit) Hashtbl.t;  (* opened, or passed whole *)
  aliases : (string * string) list;  (* (X, M) for module X = ….M *)
  words : (string, unit) Hashtbl.t;
}

let scan_caller path =
  let qualified = Hashtbl.create 256
  and opened = Hashtbl.create 16
  and words = Hashtbl.create 256
  and aliases = ref [] in
  (* The last component of a module path, and the tokens after the path. *)
  let rec path_end last = function
    | Sym '.' :: Upper m :: rest -> path_end m rest
    | rest -> (last, rest)
  in
  let rec go = function
    | [] -> ()
    | Upper m :: Sym '.' :: Lower v :: rest ->
        Hashtbl.replace qualified (m, v) ();
        Hashtbl.replace words v ();
        go rest
    | Upper m :: Sym '.' :: Sym ('(' | '[' | '{') :: rest ->
        Hashtbl.replace opened m ();
        go rest
    | Lower ("open" | "include") :: Sym '!' :: Upper m :: rest
    | Lower ("open" | "include") :: Upper m :: rest ->
        let last, rest = path_end m rest in
        Hashtbl.replace opened last ();
        go rest
    | Lower "module" :: Upper x :: Sym '=' :: Upper m :: rest ->
        let last, rest = path_end m rest in
        aliases := (x, last) :: !aliases;
        go rest
    | Sym '(' :: (Upper m :: rest as tail) -> (
        match path_end m rest with
        | last, (Sym ')' :: _ as rest) ->
            Hashtbl.replace opened last ();
            go rest
        | _ -> go tail)
    | Lower v :: rest ->
        Hashtbl.replace words v ();
        go rest
    | _ :: rest -> go rest
  in
  go (tokens (strip (read_file path)));
  { path; qualified; opened; aliases = !aliases; words }

let used callers ~own m v =
  List.exists
    (fun c ->
      (not (List.mem c.path own))
      &&
      let aliases =
        List.filter_map (fun (x, y) -> if y = m then Some x else None) c.aliases
      in
      List.exists
        (fun name ->
          Hashtbl.mem c.qualified (name, v)
          || (Hashtbl.mem c.opened name && Hashtbl.mem c.words v))
        (m :: aliases))
    callers

let starts_item line =
  match tokens line with
  | Lower
      ( "val" | "type" | "module" | "exception" | "include" | "external"
      | "class" | "end" | "open" )
    :: _ ->
      true
  | _ -> false

let is_test_hook_doc line =
  let doc = "(** Test hook:" in
  let rec from i =
    i + String.length doc <= String.length line
    && (String.sub line i (String.length doc) = doc || from (i + 1))
  in
  from 0

(* Each [val] of an interface: its line, its name and whether the lines up
   to the next item hold a doc comment starting [Test hook:]. A [val] in a
   functor parameter's signature, [(Key : sig … end)], is not an export. *)
let exports path =
  let text = read_file path in
  let raw = Array.of_list (String.split_on_char '\n' text) in
  let code = Array.of_list (String.split_on_char '\n' (strip text)) in
  let n = Array.length code in
  let rec item_end j =
    if j < n && not (starts_item code.(j)) then item_end (j + 1) else j
  in
  (* [depth] counts the blocks open inside a functor parameter's signature;
     0 outside one. *)
  let rec block depth = function
    | [] -> depth
    | Sym '(' :: Upper _ :: Sym ':' :: Lower "sig" :: rest when depth = 0 ->
        block 1 rest
    | Lower ("sig" | "struct" | "object" | "begin") :: rest when depth > 0 ->
        block (depth + 1) rest
    | Lower "end" :: rest when depth > 0 -> block (depth - 1) rest
    | _ :: rest -> block depth rest
  in
  let rec go i depth acc =
    if i >= n then List.rev acc
    else
      let line = tokens code.(i) in
      let acc =
        match line with
        | Lower "val" :: Lower v :: _ when depth = 0 ->
            let doc = Array.sub raw i (item_end (i + 1) - i) in
            (i + 1, v, Array.exists is_test_hook_doc doc) :: acc
        | _ -> acc
      in
      go (i + 1) (block depth line) acc
  in
  go 0 0 []

let () =
  match Array.to_list Sys.argv with
  | _ :: lib :: "--" :: caller_dirs ->
      let lib_files = source_files lib in
      let callers =
        List.map scan_caller
          (lib_files @ List.concat_map source_files caller_dirs)
      in
      let unused =
        List.concat_map
          (fun mli ->
            let m =
              String.capitalize_ascii
                (Filename.remove_extension (Filename.basename mli))
            in
            let own = [ mli; Filename.remove_extension mli ^ ".ml" ] in
            List.filter_map
              (fun (line, v, test_hook) ->
                if test_hook || used callers ~own m v then None
                else Some (Printf.sprintf "%s:%d: %s.%s" mli line m v))
              (exports mli))
          (List.filter (fun f -> Filename.check_suffix f ".mli") lib_files)
      in
      if unused <> [] then begin
        List.iter prerr_endline unused;
        Printf.eprintf
          "%d export(s) above have no use outside the tests: run them in \
           the system, delete them, or start their doc comment with \"Test \
           hook:\".\n"
          (List.length unused);
        exit 1
      end
  | _ ->
      prerr_endline "usage: check_exports LIB_DIR -- CALLER_DIR...";
      exit 2
