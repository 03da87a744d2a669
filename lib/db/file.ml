type organization_impl =
  | Key_seq of Btree.t
  | Rel of Relative_file.t
  | Entry of { slots : Relative_file.t; mutable next_entry : int }

type t = {
  store : Store.t;
  definition : Schema.file_def;
  impl : organization_impl;
  indices : Secondary_index.t list;
}

type change = {
  file : string;
  key : Key.t;
  before : string option;
  after : string option;
}

let create store (definition : Schema.file_def) =
  let impl =
    match definition.Schema.organization with
    | Schema.Key_sequenced ->
        Key_seq
          (Btree.create store ~name:definition.Schema.file_name
             ~degree:definition.Schema.degree)
    | Schema.Relative ->
        Rel
          (Relative_file.create store ~name:definition.Schema.file_name
             ~slots_per_segment:definition.Schema.degree)
    | Schema.Entry_sequenced ->
        Entry
          {
            slots =
              Relative_file.create store ~name:definition.Schema.file_name
                ~slots_per_segment:definition.Schema.degree;
            next_entry = 0;
          }
  in
  let indices =
    List.map
      (fun { Schema.index_name; on_field } ->
        Secondary_index.create store ~name:index_name ~field:on_field
          ~degree:definition.Schema.degree)
      definition.Schema.indices
  in
  { store; definition; impl; indices }

let def t = t.definition

let file_name t = t.definition.Schema.file_name

let slot_of_key key =
  match Key.to_int key with
  | Some slot when slot >= 0 -> Some slot
  | Some _ | None -> None

let read t key =
  match t.impl with
  | Key_seq tree -> Btree.find tree key
  | Rel file | Entry { slots = file; _ } -> (
      match slot_of_key key with
      | Some slot -> Relative_file.read_slot file slot
      | None -> None)

let index_insert t key payload =
  List.iter
    (fun index -> Secondary_index.insert_entry index ~primary:key ~payload)
    t.indices

let index_delete t key payload =
  List.iter
    (fun index -> Secondary_index.delete_entry index ~primary:key ~payload)
    t.indices

let index_update t key before after =
  List.iter
    (fun index -> Secondary_index.update_entry index ~primary:key ~before ~after)
    t.indices

let change t key before after = { file = file_name t; key; before; after }

let insert t key payload =
  match t.impl with
  | Key_seq tree -> (
      match Btree.insert tree key payload with
      | Ok () ->
          index_insert t key payload;
          Ok (change t key None (Some payload))
      | Error `Duplicate -> Error `Duplicate)
  | Rel file -> (
      match slot_of_key key with
      | None -> Error `Bad_key
      | Some slot -> (
          match Relative_file.read_slot file slot with
          | Some _ -> Error `Duplicate
          | None ->
              ignore (Relative_file.write_slot file slot payload);
              Ok (change t key None (Some payload))))
  | Entry _ -> Error `Bad_key

let load partitions rows =
  let name =
    match partitions with
    | (_, f) :: _ -> file_name f
    | [] -> invalid_arg "File.load: no partitions"
  in
  let refuse why = invalid_arg (Printf.sprintf "File.load %s: %s" name why) in
  let trees =
    List.map
      (fun (low_key, f) ->
        match f.impl with
        | Key_seq tree when f.indices = [] -> (low_key, f.store, tree)
        | Key_seq _ -> refuse "secondary indices need per-row inserts"
        | Rel _ | Entry _ -> refuse "not a key-sequenced file")
      partitions
  in
  let rec ascending = function
    | (a, _) :: ((b, _) :: _ as rest) -> Key.compare a b < 0 && ascending rest
    | [] | [ _ ] -> true
  in
  if not (ascending rows) then refuse "keys must strictly ascend";
  let touched = ref [] in
  (* The cursor only moves forward: each partition takes the run of rows
     below the next partition's low key. *)
  let rec fill trees rows =
    match (trees, rows) with
    | _ :: ((low_key, _, _) :: _ as later), (key, _) :: _
      when Key.compare low_key key <= 0 ->
        fill later rows
    | (_, store, tree) :: later, _ :: _ ->
        let below =
          match later with
          | (low_key, _, _) :: _ -> fun key -> Key.compare key low_key < 0
          | [] -> fun _ -> true
        in
        Store.set_charging store false;
        touched := store :: !touched;
        let rest = ref [] in
        Btree.bulk_load tree (fun add ->
            let rec feed = function
              | (key, payload) :: tail when below key ->
                  add key payload;
                  feed tail
              | tail -> rest := tail
            in
            feed rows);
        fill later !rest
    | _, [] | [], _ -> ()
  in
  (* A refused load must not leave its volumes uncharged. *)
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun store -> Store.set_charging store true) !touched)
    (fun () ->
      fill trees rows;
      List.iter Store.overwrite_disk_image !touched)

let append t payload =
  match t.impl with
  | Entry entry ->
      let number = entry.next_entry in
      entry.next_entry <- number + 1;
      ignore (Relative_file.write_slot entry.slots number payload);
      let key = Key.of_int number in
      Ok (key, change t key None (Some payload))
  | Key_seq _ | Rel _ -> Error `Wrong_organization

let update t key payload =
  match t.impl with
  | Key_seq tree -> (
      match Btree.update tree key payload with
      | Ok before ->
          index_update t key before payload;
          Ok (change t key (Some before) (Some payload))
      | Error `Not_found -> Error `Not_found)
  | Rel file | Entry { slots = file; _ } -> (
      match slot_of_key key with
      | None -> Error `Bad_key
      | Some slot -> (
          match Relative_file.read_slot file slot with
          | None -> Error `Not_found
          | Some before ->
              ignore (Relative_file.write_slot file slot payload);
              Ok (change t key (Some before) (Some payload))))

let delete t key =
  match t.impl with
  | Key_seq tree -> (
      match Btree.delete tree key with
      | Ok before ->
          index_delete t key before;
          Ok (change t key (Some before) None)
      | Error `Not_found -> Error `Not_found)
  | Rel file | Entry { slots = file; _ } -> (
      match slot_of_key key with
      | None -> Error `Bad_key
      | Some slot -> (
          match Relative_file.delete_slot file slot with
          | None -> Error `Not_found
          | Some before -> Ok (change t key (Some before) None)))

(* Impose a target image (Some payload / None) for a key, whatever the
   current state — shared by undo and redo, which makes both idempotent. *)
let impose t key target =
  let current = read t key in
  if current = target then ()
  else begin
    match t.impl with
    | Key_seq tree -> (
        match (current, target) with
        | None, Some payload ->
            (match Btree.insert tree key payload with
            | Ok () -> index_insert t key payload
            | Error `Duplicate -> assert false)
        | Some before, Some payload ->
            (match Btree.update tree key payload with
            | Ok _ -> index_update t key before payload
            | Error `Not_found -> assert false)
        | Some before, None ->
            (match Btree.delete tree key with
            | Ok _ -> index_delete t key before
            | Error `Not_found -> assert false)
        | None, None -> ())
    | Rel file | Entry { slots = file; _ } -> (
        match slot_of_key key with
        | None -> invalid_arg "File.impose: bad relative key"
        | Some slot -> (
            match target with
            | Some payload -> ignore (Relative_file.write_slot file slot payload)
            | None -> ignore (Relative_file.delete_slot file slot)))
  end

let apply_undo t change = impose t change.key change.before

let apply_redo t change = impose t change.key change.after

let next_after t key =
  match t.impl with
  | Key_seq tree -> Btree.next_after tree key
  | Rel file | Entry { slots = file; _ } ->
      let start = match slot_of_key key with Some s -> s | None -> -1 in
      let rec probe slot =
        if slot > Relative_file.highest_slot file then None
        else
          match Relative_file.read_slot file slot with
          | Some payload -> Some (Key.of_int slot, payload)
          | None -> probe (slot + 1)
      in
      probe (start + 1)

let lookup_index t ~index key =
  match
    List.find_opt
      (fun i -> String.equal (Secondary_index.name i) index)
      t.indices
  with
  | Some i -> Secondary_index.lookup i key
  | None -> invalid_arg ("File.lookup_index: no index " ^ index)

let count t =
  match t.impl with
  | Key_seq tree -> Btree.count tree
  | Rel file | Entry { slots = file; _ } -> Relative_file.record_count file

let iter t visit =
  match t.impl with
  | Key_seq tree -> Btree.iter tree visit
  | Rel file | Entry { slots = file; _ } ->
      Relative_file.iter file (fun slot payload ->
          visit (Key.of_int slot) payload)

let check_invariants t =
  match t.impl with
  | Rel _ | Entry _ -> Ok ()
  | Key_seq tree -> (
      match Btree.check_invariants tree with
      | Error _ as e -> e
      | Ok () ->
          (* Index consistency: every record appears in each index exactly
             when it carries the indexed field, and no index entry dangles. *)
          let failure = ref None in
          let fail fmt =
            Format.kasprintf
              (fun m -> if !failure = None then failure := Some m)
              fmt
          in
          List.iter
            (fun index ->
              let expected = ref 0 in
              iter t (fun key payload ->
                  match Record.field payload (Secondary_index.field index) with
                  | Some alt ->
                      incr expected;
                      let hits = Secondary_index.lookup index alt in
                      if not (List.exists (Key.equal key) hits) then
                        fail "index %s: record %a not indexed under %s"
                          (Secondary_index.name index) Key.pp key alt
                  | None -> ());
              if Secondary_index.entry_count index <> !expected then
                fail "index %s: %d entries but %d indexed records"
                  (Secondary_index.name index)
                  (Secondary_index.entry_count index)
                  !expected)
            t.indices;
          (match !failure with None -> Ok () | Some m -> Error m))

let snapshot t =
  let impl_restore =
    match t.impl with
    | Key_seq tree -> Btree.snapshot tree
    | Rel file -> Relative_file.snapshot file
    | Entry entry ->
        let slots_restore = Relative_file.snapshot entry.slots
        and next_entry = entry.next_entry in
        fun () ->
          slots_restore ();
          entry.next_entry <- next_entry
  in
  let index_restores = List.map Secondary_index.snapshot t.indices in
  fun () ->
    impl_restore ();
    List.iter (fun restore -> restore ()) index_restores
