type t =
  | Btree_leaf of {
      keys : Key.t array;
      payloads : string array;
      next_leaf : int option;
    }
  | Btree_internal of { separators : Key.t array; children : int array }
  | Relative_segment of { base_slot : int; slots : string option array }

let string_array_bytes a =
  Array.fold_left (fun acc s -> acc + String.length s + 2) 0 a

let size_bytes = function
  | Btree_leaf { keys; payloads; _ } ->
      8 + string_array_bytes keys + string_array_bytes payloads
  | Btree_internal { separators; children } ->
      8 + string_array_bytes separators + (4 * Array.length children)
  | Relative_segment { slots; _ } ->
      8
      + Array.fold_left
          (fun acc slot ->
            acc + match slot with Some s -> String.length s + 2 | None -> 1)
          0 slots

let describe = function
  | Btree_leaf { keys; _ } ->
      Printf.sprintf "btree leaf (%d keys)" (Array.length keys)
  | Btree_internal { children; _ } ->
      Printf.sprintf "btree internal (%d children)" (Array.length children)
  | Relative_segment { base_slot; slots } ->
      Printf.sprintf "relative segment @%d (%d slots)" base_slot
        (Array.length slots)
