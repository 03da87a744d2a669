type t =
  | Btree_leaf of {
      keys : Packed_keys.t;
      payloads : string array;
      next_leaf : int;
    }
  | Btree_internal of { separators : Packed_keys.t; children : int array }
  | Relative_segment of { base_slot : int; slots : string option array }

let no_leaf = -1
