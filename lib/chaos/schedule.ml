(* Entries keep an insertion sequence number so sorting by instant is stable
   across OCaml versions regardless of List.sort's tie behavior. *)
type entry = { at_ms : int; seq : int; fault : Fault.t }

type t = { entries : entry list; next_seq : int }

let empty = { entries = []; next_seq = 0 }

let add t ~at_ms fault =
  if at_ms < 0 then invalid_arg "Schedule.add: negative instant";
  {
    entries = { at_ms; seq = t.next_seq; fault } :: t.entries;
    next_seq = t.next_seq + 1;
  }

let merge a b =
  let rebased =
    List.map (fun e -> { e with seq = e.seq + a.next_seq }) b.entries
  in
  { entries = rebased @ a.entries; next_seq = a.next_seq + b.next_seq }

let entries t =
  List.sort
    (fun a b ->
      if a.at_ms <> b.at_ms then Int.compare a.at_ms b.at_ms
      else Int.compare a.seq b.seq)
    t.entries
  |> List.map (fun e -> (e.at_ms, e.fault))

let count t = List.length t.entries

let kind_counts t =
  let table = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let kind = Fault.kind e.fault in
      Hashtbl.replace table kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt table kind)))
    t.entries;
  Hashtbl.fold (fun kind n acc -> (kind, n) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_string t =
  entries t
  |> List.map (fun (at_ms, fault) ->
         Printf.sprintf "%6dms %s" at_ms (Fault.to_string fault))
  |> String.concat "\n"
