type t =
  | Btree_leaf of {
      keys : Packed_keys.t;
      payloads : string array;
      next_leaf : int;
    }
  | Btree_internal of { separators : Packed_keys.t; children : int array }
  | Relative_segment of { base_slot : int; slots : string option array }

let no_leaf = -1

let describe = function
  | Btree_leaf { payloads; _ } ->
      Printf.sprintf "btree leaf (%d keys)" (Array.length payloads)
  | Btree_internal { children; _ } ->
      Printf.sprintf "btree internal (%d children)" (Array.length children)
  | Relative_segment { base_slot; slots } ->
      Printf.sprintf "relative segment @%d (%d slots)" base_slot
        (Array.length slots)
