open Block_content

type t = {
  store : Store.t;
  tree_name : string;
  degree : int;
  mutable root : int;
  mutable record_count : int;
}

let max_keys t = (2 * t.degree) - 1

(* Blocks are read straight out of the store: a leaf's keys stay packed,
   and only insert, delete and split rebuild them. *)
let leaf keys payloads next_leaf = Btree_leaf { keys; payloads; next_leaf }

let internal separators children = Btree_internal { separators; children }

let foreign () = invalid_arg "Btree: foreign block"

let corrupt_link () = invalid_arg "Btree: corrupt sibling link"

let create store ~name ~degree =
  if degree < 2 then invalid_arg "Btree.create: degree must be >= 2";
  let root = Store.alloc store (leaf Packed_keys.empty [||] no_leaf) in
  { store; tree_name = name; degree; root; record_count = 0 }

let count t = t.record_count

(* From a [Packed_keys.search] rank: the first index whose key is above
   the key searched. *)
let upper_bound rank = if rank >= 0 then rank + 1 else -rank - 1

(* Child index for a key: separators.(i) <= key routes right of i. *)
let child_index separators key = upper_bound (Packed_keys.search separators key)

let array_insert arr i x =
  let n = Array.length arr in
  let grown = Array.make (n + 1) x in
  Array.blit arr 0 grown 0 i;
  Array.blit arr i grown (i + 1) (n - i);
  grown

let array_remove arr i =
  let n = Array.length arr in
  Array.init (n - 1) (fun j -> if j < i then arr.(j) else arr.(j + 1))

let height t =
  let rec descend block levels =
    match Store.read t.store block with
    | Btree_leaf _ -> levels
    | Btree_internal { children; _ } -> descend children.(0) (levels + 1)
    | Relative_segment _ -> foreign ()
  in
  descend t.root 1

(* ------------------------------------------------------------------ *)
(* Insert *)

type split = No_split | Split of Key.t * int

(* A full leaf's right half goes to a fresh block and keeps its first key,
   which is pushed up; the left half stays in [block]. *)
let split_leaf t block keys payloads next_leaf =
  let n = Array.length payloads in
  let half = n / 2 in
  let right_block =
    Store.alloc t.store
      (leaf
         (Packed_keys.sub keys half (n - half))
         (Array.sub payloads half (n - half))
         next_leaf)
  in
  Store.write t.store block
    (leaf (Packed_keys.sub keys 0 half) (Array.sub payloads 0 half) right_block);
  Split (Packed_keys.get keys half, right_block)

(* A full internal block pushes its middle separator up and keeps neither
   copy of it. *)
let split_internal t block separators children =
  let n = Array.length children - 1 in
  let mid = n / 2 in
  let right_block =
    Store.alloc t.store
      (internal
         (Packed_keys.sub separators (mid + 1) (n - mid - 1))
         (Array.sub children (mid + 1) (n - mid)))
  in
  Store.write t.store block
    (internal (Packed_keys.sub separators 0 mid) (Array.sub children 0 (mid + 1)));
  Split (Packed_keys.get separators mid, right_block)

exception Duplicate_key

let insert t key payload =
  let rec insert_into block =
    match Store.read t.store block with
    | Btree_leaf { keys; payloads; next_leaf } ->
        let i, keys =
          match Packed_keys.add keys key with
          | Ok added -> added
          | Error _ -> raise Duplicate_key
        in
        let payloads = array_insert payloads i payload in
        if Array.length payloads <= max_keys t then begin
          Store.write t.store block (leaf keys payloads next_leaf);
          No_split
        end
        else split_leaf t block keys payloads next_leaf
    | Btree_internal { separators; children } -> (
        let i = child_index separators key in
        match insert_into children.(i) with
        | No_split -> No_split
        | Split (sep, right_block) ->
            let separators =
              match Packed_keys.add separators sep with
              | Ok (_, separators) -> separators
              | Error _ -> invalid_arg "Btree: separator pushed up twice"
            in
            let children = array_insert children (i + 1) right_block in
            if Array.length children - 1 <= max_keys t then begin
              Store.write t.store block (internal separators children);
              No_split
            end
            else split_internal t block separators children)
    | Relative_segment _ -> foreign ()
  in
  match insert_into t.root with
  | No_split ->
      t.record_count <- t.record_count + 1;
      Ok ()
  | Split (sep, right_block) ->
      (* Grow at the top: move the old root aside under a fresh root. *)
      let new_root =
        internal (Packed_keys.of_array [| sep |]) [| t.root; right_block |]
      in
      t.root <- Store.alloc t.store new_root;
      t.record_count <- t.record_count + 1;
      Ok ()
  | exception Duplicate_key -> Error `Duplicate

(* ------------------------------------------------------------------ *)
(* Point access *)

(* The leaf block a key routes to, and its content. *)
let rec find_leaf t block key =
  match Store.read t.store block with
  | Btree_leaf _ as content -> (block, content)
  | Btree_internal { separators; children } ->
      find_leaf t children.(child_index separators key) key
  | Relative_segment _ -> foreign ()

let find t key =
  match find_leaf t t.root key with
  | _, Btree_leaf { keys; payloads; _ } ->
      let rank = Packed_keys.search keys key in
      if rank >= 0 then Some payloads.(rank) else None
  | _ -> foreign ()

(* An update keeps the leaf's packed keys and replaces its payloads. *)
let update t key payload =
  match find_leaf t t.root key with
  | block, Btree_leaf { keys; payloads; next_leaf } ->
      let rank = Packed_keys.search keys key in
      if rank >= 0 then begin
        let before = payloads.(rank) in
        let payloads = Array.copy payloads in
        payloads.(rank) <- payload;
        Store.write t.store block (leaf keys payloads next_leaf);
        Ok before
      end
      else Error `Not_found
  | _ -> foreign ()

let delete t key =
  match find_leaf t t.root key with
  | block, Btree_leaf { keys; payloads; next_leaf } ->
      let rank = Packed_keys.search keys key in
      if rank >= 0 then begin
        let before = payloads.(rank) in
        Store.write t.store block
          (leaf (Packed_keys.remove keys rank) (array_remove payloads rank)
             next_leaf);
        t.record_count <- t.record_count - 1;
        Ok before
      end
      else Error `Not_found
  | _ -> foreign ()

(* ------------------------------------------------------------------ *)
(* Sequential access *)

(* The leaf a sibling link names. *)
let sibling t block =
  match Store.read t.store block with
  | Btree_leaf _ as content -> content
  | Btree_internal _ | Relative_segment _ -> corrupt_link ()

let rec first_in_chain t content after =
  (* First (key, payload) strictly greater than [after] in this leaf or its
     successors; skips leaves emptied by deletes. *)
  match content with
  | Btree_leaf { keys; payloads; next_leaf } ->
      let i = upper_bound (Packed_keys.search keys after) in
      if i < Array.length payloads then Some (Packed_keys.get keys i, payloads.(i))
      else if next_leaf = no_leaf then None
      else first_in_chain t (sibling t next_leaf) after
  | Btree_internal _ | Relative_segment _ -> corrupt_link ()

let next_after t key =
  let _, leaf = find_leaf t t.root key in
  first_in_chain t leaf key

let range t ~lo ~hi =
  if Key.compare lo hi > 0 then []
  else begin
    let rec collect content acc =
      match content with
      | Btree_leaf { keys; payloads; next_leaf } -> (
          let acc = ref acc in
          let stop =
            try
              Packed_keys.iteri
                (fun i key ->
                  if Key.compare key lo >= 0 then
                    if Key.compare key hi <= 0 then
                      acc := (key, payloads.(i)) :: !acc
                    else raise Exit)
                keys;
              false
            with Exit -> true
          in
          if stop || next_leaf = no_leaf then List.rev !acc
          else collect (sibling t next_leaf) !acc)
      | Btree_internal _ | Relative_segment _ -> corrupt_link ()
    in
    collect (snd (find_leaf t t.root lo)) []
  end

let rec leftmost t block =
  match Store.read t.store block with
  | Btree_leaf _ as content -> content
  | Btree_internal { children; _ } -> leftmost t children.(0)
  | Relative_segment _ -> foreign ()

(* [visit] on each leaf of the sibling chain, leftmost first. *)
let iter_leaves t visit =
  let rec walk content =
    match content with
    | Btree_leaf { keys; payloads; next_leaf } ->
        visit keys payloads;
        if next_leaf <> no_leaf then walk (sibling t next_leaf)
    | Btree_internal _ | Relative_segment _ -> corrupt_link ()
  in
  walk (leftmost t t.root)

let iter t visit =
  iter_leaves t (fun keys payloads ->
      Packed_keys.iteri (fun i key -> visit key payloads.(i)) keys)

let to_alist t =
  let items = ref [] in
  iter t (fun key payload -> items := (key, payload) :: !items);
  List.rev !items

let leaf_blocks t =
  let leaves = ref 0 in
  iter_leaves t (fun _ _ -> incr leaves);
  !leaves

(* ------------------------------------------------------------------ *)
(* Structural audit *)

let check_invariants t =
  let failure = ref None in
  let fail fmt =
    Format.kasprintf
      (fun message -> if !failure = None then failure := Some message)
      fmt
  in
  let check_sorted what keys lo hi =
    Array.iteri
      (fun i key ->
        if i > 0 && Key.compare keys.(i - 1) key >= 0 then
          fail "%s: keys out of order at %d" what i;
        (match lo with
        | Some l when Key.compare key l < 0 ->
            fail "%s: key %a below bound %a" what Key.pp key Key.pp l
        | _ -> ());
        match hi with
        | Some h when Key.compare key h >= 0 ->
            fail "%s: key %a above bound %a" what Key.pp key Key.pp h
        | _ -> ())
      keys
  in
  let counted = ref 0 in
  let rec check block lo hi depth =
    match Store.read t.store block with
    | Btree_leaf { keys; payloads; _ } ->
        let keys = Packed_keys.to_array keys in
        if Array.length keys <> Array.length payloads then
          fail "leaf %d: key/payload arity mismatch" block;
        if Array.length keys > max_keys t then fail "leaf %d: overfull" block;
        check_sorted (Printf.sprintf "leaf %d" block) keys lo hi;
        counted := !counted + Array.length keys;
        depth
    | Btree_internal { separators; children } ->
        let separators = Packed_keys.to_array separators in
        let n = Array.length separators in
        if Array.length children <> n + 1 then
          fail "internal %d: arity mismatch" block;
        if n > max_keys t then fail "internal %d: overfull" block;
        if n = 0 then fail "internal %d: empty separator set" block;
        check_sorted (Printf.sprintf "internal %d" block) separators lo hi;
        let depths =
          List.init (n + 1) (fun i ->
              let child_lo = if i = 0 then lo else Some separators.(i - 1) in
              let child_hi = if i = n then hi else Some separators.(i) in
              check children.(i) child_lo child_hi (depth + 1))
        in
        (match depths with
        | first :: rest ->
            if List.exists (fun d -> d <> first) rest then
              fail "internal %d: non-uniform depth" block;
            first
        | [] -> depth)
    | Relative_segment _ -> foreign ()
  in
  ignore (check t.root None None 1);
  if !counted <> t.record_count then
    fail "record count %d but found %d" t.record_count !counted;
  (* Sibling chain must enumerate the same records in order. *)
  let chain = to_alist t in
  if List.length chain <> !counted then
    fail "sibling chain has %d records, tree has %d" (List.length chain)
      !counted;
  let rec ordered = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if Key.compare a b >= 0 then fail "sibling chain out of order";
        ordered rest
    | _ -> ()
  in
  ordered chain;
  match !failure with None -> Ok () | Some message -> Error message

let snapshot t =
  let root = t.root and record_count = t.record_count in
  fun () ->
    t.root <- root;
    t.record_count <- record_count

(* ------------------------------------------------------------------ *)
(* Ascending bulk load *)

(* One level of the rightmost root-to-leaf path, in buffers one slot larger
   than a full block, so an append can overflow the level before it splits
   exactly as [insert] splits it. A leaf level uses [keys], [payloads] and
   [next_leaf]; an internal level keeps its separators in [keys] and uses
   [children]. [shared.(i)] is what key [i] has in common with key
   [i - 1], found when the key was checked against it, so a block leaving
   the path is packed without comparing its keys again. *)
type path_level = {
  is_leaf : bool;
  mutable block : int;
  keys : Key.t array;
  shared : int array;
  payloads : string array;
  children : int array;
  mutable used : int;  (* keys (separators) held *)
  next_leaf : int;
}

(* What the next key must exceed: the keys already in the tree, then the
   previous row. *)
type bound = Any | At_least of Key.t | Above of Key.t

(* Content of a freshly allocated block until it leaves the path or the
   load ends, whichever writes its final content first. *)
let placeholder = leaf Packed_keys.empty [||] no_leaf

let path_level t ~is_leaf block keys ?(payloads = [||]) ?(children = [||])
    ?(next_leaf = no_leaf) () =
  let slots = max_keys t + 1 in
  let used = Array.length keys in
  let level =
    {
      is_leaf;
      block;
      keys = Array.make slots Key.min_key;
      shared = Array.make slots 0;
      payloads = (if is_leaf then Array.make slots "" else [||]);
      children = (if is_leaf then [||] else Array.make (slots + 1) 0);
      used;
      next_leaf;
    }
  in
  Array.blit keys 0 level.keys 0 used;
  for i = 1 to used - 1 do
    level.shared.(i) <- Key.common_prefix_length keys.(i - 1) keys.(i)
  done;
  Array.blit payloads 0 level.payloads 0 (Array.length payloads);
  Array.blit children 0 level.children 0 (Array.length children);
  level

let level_of_content t block = function
  | Btree_leaf { keys; payloads; next_leaf } ->
      path_level t ~is_leaf:true block (Packed_keys.to_array keys) ~payloads
        ~next_leaf ()
  | Btree_internal { separators; children } ->
      path_level t ~is_leaf:false block
        (Packed_keys.to_array separators)
        ~children ()
  | Relative_segment _ -> foreign ()

(* The level's content; [next_leaf] overrides a leaf's sibling link. *)
let level_content ?(next_leaf = no_leaf) level ~count =
  let keys = Packed_keys.of_shared level.keys level.shared count in
  if level.is_leaf then
    leaf keys
      (Array.sub level.payloads 0 count)
      (if next_leaf <> no_leaf then next_leaf else level.next_leaf)
  else internal keys (Array.sub level.children 0 (count + 1))

(* The overfull level splits as [split_leaf] / [split_internal] split it:
   the right half gets a fresh block, the left half keeps the level's block
   and leaves the path with its final content, and the level becomes the
   right half. Returns the separator to push up and the right block. *)
let split_level t level =
  let half = level.used / 2 in
  let up_sep = level.keys.(half) in
  (* A leaf's right half keeps the separator it pushes up; an internal
     block's does not. *)
  let right_first = if level.is_leaf then half else half + 1 in
  let right_count = level.used - right_first in
  let right_block = Store.alloc t.store placeholder in
  Store.write t.store level.block
    (level_content level ~count:half ~next_leaf:right_block);
  Array.blit level.keys right_first level.keys 0 right_count;
  Array.blit level.shared right_first level.shared 0 right_count;
  if level.is_leaf then
    Array.blit level.payloads right_first level.payloads 0 right_count
  else Array.blit level.children right_first level.children 0 (right_count + 1);
  level.used <- right_count;
  level.block <- right_block;
  (up_sep, right_block)

let bulk_load t feed =
  let rec rightmost block levels =
    let content = Store.read t.store block in
    let levels = level_of_content t block content :: levels in
    match content with
    | Btree_internal { children; _ } ->
        rightmost children.(Array.length children - 1) levels
    | Btree_leaf _ | Relative_segment _ -> Array.of_list levels
  in
  (* Leaf first, root last. *)
  let path = ref (rightmost t.root []) in
  let bound =
    let leaf = !path.(0) in
    ref
      (if leaf.used > 0 then Above leaf.keys.(leaf.used - 1)
       else if Array.length !path = 1 then Any
       else
         (* Deletes emptied the rightmost leaf: a key equal to its parent's
            last separator still routes into it. *)
         let parent = !path.(1) in
         At_least parent.keys.(parent.used - 1))
  in
  (* Push a split of level [i - 1] into level [i], growing a new root on
     top as [insert] does. *)
  let rec carry i sep right_block =
    if i = Array.length !path then begin
      let root = Store.alloc t.store placeholder in
      let level =
        path_level t ~is_leaf:false root [| sep |]
          ~children:[| t.root; right_block |] ()
      in
      t.root <- root;
      path := Array.append !path [| level |]
    end
    else begin
      let level = !path.(i) in
      if level.used > 0 then
        level.shared.(level.used) <-
          Key.common_prefix_length level.keys.(level.used - 1) sep;
      level.keys.(level.used) <- sep;
      level.children.(level.used + 1) <- right_block;
      level.used <- level.used + 1;
      if level.used > max_keys t then
        let up_sep, new_right = split_level t level in
        carry (i + 1) up_sep new_right
    end
  in
  let refuse key =
    invalid_arg
      (Format.asprintf "Btree.bulk_load %s: key %a does not ascend" t.tree_name
         Key.pp key)
  in
  let add key payload =
    (* Under [Above last], [last] is the leaf's last key: the common prefix
       that orders the two is what the key shares with its predecessor. *)
    let shared =
      match !bound with
      | Any -> 0
      | At_least floor -> if Key.compare key floor < 0 then refuse key else 0
      | Above last ->
          let shared = Key.common_prefix_length last key in
          if
            shared = String.length key
            || (shared < String.length last && key.[shared] < last.[shared])
          then refuse key
          else shared
    in
    bound := Above key;
    let leaf = !path.(0) in
    leaf.shared.(leaf.used) <- shared;
    leaf.keys.(leaf.used) <- key;
    leaf.payloads.(leaf.used) <- payload;
    leaf.used <- leaf.used + 1;
    t.record_count <- t.record_count + 1;
    if leaf.used > max_keys t then
      let sep, right_block = split_level t leaf in
      carry 1 sep right_block
  in
  (* Whatever stops the feed, the path's blocks get their content. *)
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun level ->
          Store.write t.store level.block (level_content level ~count:level.used))
        !path)
    (fun () -> feed add)
