type t = {
  store : Store.t;
  file_name : string;
  slots_per_segment : int;
  mutable segments : (int, int) Hashtbl.t; (* segment index -> block *)
  mutable records : int;
  mutable top_slot : int;
}

let create store ~name ~slots_per_segment =
  if slots_per_segment < 1 then
    invalid_arg "Relative_file.create: slots_per_segment must be positive";
  {
    store;
    file_name = name;
    slots_per_segment;
    segments = Hashtbl.create 16;
    records = 0;
    top_slot = -1;
  }

let segment_of t slot = slot / t.slots_per_segment

let offset_of t slot = slot mod t.slots_per_segment

let read_segment t index =
  match Hashtbl.find_opt t.segments index with
  | None -> None
  | Some block -> (
      match Store.read t.store block with
      | Block_content.Relative_segment { slots; _ } -> Some (block, slots)
      | _ -> invalid_arg "Relative_file: foreign block")

let read_slot t slot =
  if slot < 0 then invalid_arg "Relative_file.read_slot: negative slot";
  match read_segment t (segment_of t slot) with
  | None -> None
  | Some (_, slots) -> slots.(offset_of t slot)

let write_slot t slot payload =
  if slot < 0 then invalid_arg "Relative_file.write_slot: negative slot";
  let index = segment_of t slot in
  let block, slots =
    match read_segment t index with
    | Some (block, slots) -> (block, slots)
    | None ->
        let slots = Array.make t.slots_per_segment None in
        let block =
          Store.alloc t.store
            (Block_content.Relative_segment
               { base_slot = index * t.slots_per_segment; slots })
        in
        Hashtbl.replace t.segments index block;
        (block, slots)
  in
  let before = slots.(offset_of t slot) in
  let updated = Array.copy slots in
  updated.(offset_of t slot) <- Some payload;
  Store.write t.store block
    (Block_content.Relative_segment
       { base_slot = index * t.slots_per_segment; slots = updated });
  if before = None then t.records <- t.records + 1;
  t.top_slot <- max t.top_slot slot;
  before

let delete_slot t slot =
  if slot < 0 then invalid_arg "Relative_file.delete_slot: negative slot";
  let index = segment_of t slot in
  match read_segment t index with
  | None -> None
  | Some (block, slots) ->
      let before = slots.(offset_of t slot) in
      if before <> None then begin
        let updated = Array.copy slots in
        updated.(offset_of t slot) <- None;
        Store.write t.store block
          (Block_content.Relative_segment
             { base_slot = index * t.slots_per_segment; slots = updated });
        t.records <- t.records - 1
      end;
      before

let record_count t = t.records

let highest_slot t = t.top_slot

let iter t visit =
  let indices =
    Hashtbl.fold (fun index _ acc -> index :: acc) t.segments []
    |> List.sort Int.compare
  in
  List.iter
    (fun index ->
      match read_segment t index with
      | None -> ()
      | Some (_, slots) ->
          Array.iteri
            (fun offset slot ->
              match slot with
              | Some payload ->
                  visit ((index * t.slots_per_segment) + offset) payload
              | None -> ())
            slots)
    indices

let snapshot t =
  let segments = Hashtbl.copy t.segments
  and records = t.records
  and top_slot = t.top_slot in
  fun () ->
    t.segments <- Hashtbl.copy segments;
    t.records <- records;
    t.top_slot <- top_slot
