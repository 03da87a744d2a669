type t =
  | Btree_leaf of {
      keys : Key.t array;
      payloads : string array;
      next_leaf : int option;
    }
  | Btree_internal of { separators : Key.t array; children : int array }
  | Relative_segment of { base_slot : int; slots : string option array }

let describe = function
  | Btree_leaf { keys; _ } ->
      Printf.sprintf "btree leaf (%d keys)" (Array.length keys)
  | Btree_internal { children; _ } ->
      Printf.sprintf "btree internal (%d children)" (Array.length children)
  | Relative_segment { base_slot; slots } ->
      Printf.sprintf "relative segment @%d (%d slots)" base_slot
        (Array.length slots)
