type t = {
  store : Store.t;
  tree_name : string;
  degree : int;
  mutable root : int;
  mutable record_count : int;
}

type leaf = { keys : Key.t array; payloads : string array; next_leaf : int option }

type internal = { separators : Key.t array; children : int array }

type node = Leaf of leaf | Internal of internal

let max_keys t = (2 * t.degree) - 1

let read_node t block =
  match Store.read t.store block with
  | Block_content.Btree_leaf { keys; payloads; next_leaf } ->
      Leaf { keys; payloads; next_leaf }
  | Block_content.Btree_internal { separators; children } ->
      Internal { separators; children }
  | Block_content.Relative_segment _ ->
      invalid_arg "Btree.read_node: foreign block"

let leaf_content { keys; payloads; next_leaf } =
  Block_content.Btree_leaf { keys; payloads; next_leaf }

let internal_content { separators; children } =
  Block_content.Btree_internal { separators; children }

let create store ~name ~degree =
  if degree < 2 then invalid_arg "Btree.create: degree must be >= 2";
  let root =
    Store.alloc store
      (leaf_content { keys = [||]; payloads = [||]; next_leaf = None })
  in
  { store; tree_name = name; degree; root; record_count = 0 }

let name t = t.tree_name

let count t = t.record_count

(* First index with arr.(i) >= key; Array.length arr when none. *)
let lower_bound arr key =
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if Key.compare arr.(mid) key < 0 then search (mid + 1) hi
      else search lo mid
    end
  in
  search 0 (Array.length arr)

(* Child index for a key: separators.(i) <= key routes right of i. *)
let child_index separators key =
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if Key.compare separators.(mid) key <= 0 then search (mid + 1) hi
      else search lo mid
    end
  in
  search 0 (Array.length separators)

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
    match read_node t block with
    | Leaf _ -> levels
    | Internal { children; _ } -> descend children.(0) (levels + 1)
  in
  descend t.root 1

(* ------------------------------------------------------------------ *)
(* Insert *)

type split = No_split | Split of Key.t * int

let split_leaf t leaf =
  let n = Array.length leaf.keys in
  let half = n / 2 in
  let right =
    {
      keys = Array.sub leaf.keys half (n - half);
      payloads = Array.sub leaf.payloads half (n - half);
      next_leaf = leaf.next_leaf;
    }
  in
  let right_block = Store.alloc t.store (leaf_content right) in
  let left =
    {
      keys = Array.sub leaf.keys 0 half;
      payloads = Array.sub leaf.payloads 0 half;
      next_leaf = Some right_block;
    }
  in
  (left, right.keys.(0), right_block)

let split_internal t node =
  let n = Array.length node.separators in
  let mid = n / 2 in
  let right =
    {
      separators = Array.sub node.separators (mid + 1) (n - mid - 1);
      children = Array.sub node.children (mid + 1) (n - mid);
    }
  in
  let right_block = Store.alloc t.store (internal_content right) in
  let left =
    {
      separators = Array.sub node.separators 0 mid;
      children = Array.sub node.children 0 (mid + 1);
    }
  in
  (left, node.separators.(mid), right_block)

exception Duplicate_key

let insert t key payload =
  let rec insert_into block =
    match read_node t block with
    | Leaf leaf ->
        let i = lower_bound leaf.keys key in
        if i < Array.length leaf.keys && Key.equal leaf.keys.(i) key then
          raise Duplicate_key;
        let grown =
          {
            leaf with
            keys = array_insert leaf.keys i key;
            payloads = array_insert leaf.payloads i payload;
          }
        in
        if Array.length grown.keys <= max_keys t then begin
          Store.write t.store block (leaf_content grown);
          No_split
        end
        else begin
          let left, sep, right_block = split_leaf t grown in
          Store.write t.store block (leaf_content left);
          Split (sep, right_block)
        end
    | Internal node -> (
        let i = child_index node.separators key in
        match insert_into node.children.(i) with
        | No_split -> No_split
        | Split (sep, right_block) ->
            let grown =
              {
                separators = array_insert node.separators i sep;
                children = array_insert node.children (i + 1) right_block;
              }
            in
            if Array.length grown.separators <= max_keys t then begin
              Store.write t.store block (internal_content grown);
              No_split
            end
            else begin
              let left, up_sep, new_right = split_internal t grown in
              Store.write t.store block (internal_content left);
              Split (up_sep, new_right)
            end)
  in
  match insert_into t.root with
  | No_split ->
      t.record_count <- t.record_count + 1;
      Ok ()
  | Split (sep, right_block) ->
      (* Grow at the top: move the old root aside under a fresh root. *)
      let new_root =
        internal_content
          { separators = [| sep |]; children = [| t.root; right_block |] }
      in
      t.root <- Store.alloc t.store new_root;
      t.record_count <- t.record_count + 1;
      Ok ()
  | exception Duplicate_key -> Error `Duplicate

(* ------------------------------------------------------------------ *)
(* Point access *)

let rec find_leaf t block key =
  match read_node t block with
  | Leaf leaf -> (block, leaf)
  | Internal node ->
      find_leaf t node.children.(child_index node.separators key) key

let find t key =
  let _, leaf = find_leaf t t.root key in
  let i = lower_bound leaf.keys key in
  if i < Array.length leaf.keys && Key.equal leaf.keys.(i) key then
    Some leaf.payloads.(i)
  else None

let update t key payload =
  let block, leaf = find_leaf t t.root key in
  let i = lower_bound leaf.keys key in
  if i < Array.length leaf.keys && Key.equal leaf.keys.(i) key then begin
    let before = leaf.payloads.(i) in
    let payloads = Array.copy leaf.payloads in
    payloads.(i) <- payload;
    Store.write t.store block (leaf_content { leaf with payloads });
    Ok before
  end
  else Error `Not_found

let delete t key =
  let block, leaf = find_leaf t t.root key in
  let i = lower_bound leaf.keys key in
  if i < Array.length leaf.keys && Key.equal leaf.keys.(i) key then begin
    let before = leaf.payloads.(i) in
    let shrunk =
      {
        leaf with
        keys = array_remove leaf.keys i;
        payloads = array_remove leaf.payloads i;
      }
    in
    Store.write t.store block (leaf_content shrunk);
    t.record_count <- t.record_count - 1;
    Ok before
  end
  else Error `Not_found

(* ------------------------------------------------------------------ *)
(* Sequential access *)

let rec first_in_chain t leaf after =
  (* First (key, payload) strictly greater than [after] in this leaf or its
     successors; skips leaves emptied by deletes. *)
  let i = lower_bound leaf.keys after in
  let i =
    if i < Array.length leaf.keys && Key.equal leaf.keys.(i) after then i + 1
    else i
  in
  if i < Array.length leaf.keys then Some (leaf.keys.(i), leaf.payloads.(i))
  else
    match leaf.next_leaf with
    | None -> None
    | Some next -> (
        match read_node t next with
        | Leaf next_leaf -> first_in_chain t next_leaf after
        | Internal _ -> invalid_arg "Btree: corrupt sibling link")

let next_after t key =
  let _, leaf = find_leaf t t.root key in
  first_in_chain t leaf key

let range t ~lo ~hi =
  if Key.compare lo hi > 0 then []
  else begin
    let _, leaf = find_leaf t t.root lo in
    let rec collect leaf acc =
      let stop = ref None in
      let acc = ref acc in
      (try
         Array.iteri
           (fun i key ->
             if Key.compare key lo >= 0 then
               if Key.compare key hi <= 0 then
                 acc := (key, leaf.payloads.(i)) :: !acc
               else begin
                 stop := Some ();
                 raise Exit
               end)
           leaf.keys
       with Exit -> ());
      match (!stop, leaf.next_leaf) with
      | Some (), _ | None, None -> List.rev !acc
      | None, Some next -> (
          match read_node t next with
          | Leaf next_leaf -> collect next_leaf !acc
          | Internal _ -> invalid_arg "Btree: corrupt sibling link")
    in
    collect leaf []
  end

let iter t visit =
  let rec leftmost block =
    match read_node t block with
    | Leaf leaf -> leaf
    | Internal node -> leftmost node.children.(0)
  in
  let rec walk leaf =
    Array.iteri (fun i key -> visit key leaf.payloads.(i)) leaf.keys;
    match leaf.next_leaf with
    | None -> ()
    | Some next -> (
        match read_node t next with
        | Leaf next_leaf -> walk next_leaf
        | Internal _ -> invalid_arg "Btree: corrupt sibling link")
  in
  walk (leftmost t.root)

let to_alist t =
  let items = ref [] in
  iter t (fun key payload -> items := (key, payload) :: !items);
  List.rev !items

let leaf_blocks t =
  let rec leftmost block =
    match read_node t block with
    | Leaf leaf -> leaf
    | Internal node -> leftmost node.children.(0)
  in
  let rec walk leaf acc =
    match leaf.next_leaf with
    | None -> acc
    | Some next -> (
        match read_node t next with
        | Leaf next_leaf -> walk next_leaf (acc + 1)
        | Internal _ -> invalid_arg "Btree: corrupt sibling link")
  in
  walk (leftmost t.root) 1

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
    match read_node t block with
    | Leaf leaf ->
        if Array.length leaf.keys <> Array.length leaf.payloads then
          fail "leaf %d: key/payload arity mismatch" block;
        if Array.length leaf.keys > max_keys t then
          fail "leaf %d: overfull" block;
        check_sorted (Printf.sprintf "leaf %d" block) leaf.keys lo hi;
        counted := !counted + Array.length leaf.keys;
        depth
    | Internal node ->
        let n = Array.length node.separators in
        if Array.length node.children <> n + 1 then
          fail "internal %d: arity mismatch" block;
        if n > max_keys t then fail "internal %d: overfull" block;
        if n = 0 then fail "internal %d: empty separator set" block;
        check_sorted (Printf.sprintf "internal %d" block) node.separators lo hi;
        let depths =
          List.init (n + 1) (fun i ->
              let child_lo = if i = 0 then lo else Some node.separators.(i - 1) in
              let child_hi = if i = n then hi else Some node.separators.(i) in
              check node.children.(i) child_lo child_hi (depth + 1))
        in
        (match depths with
        | first :: rest ->
            if List.exists (fun d -> d <> first) rest then
              fail "internal %d: non-uniform depth" block;
            first
        | [] -> depth)
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
   [children]. *)
type path_level = {
  is_leaf : bool;
  mutable block : int;
  keys : Key.t array;
  payloads : string array;
  children : int array;
  mutable used : int;  (* keys (separators) held *)
  next_leaf : int option;
}

(* What the next key must exceed: the keys already in the tree, then the
   previous row. *)
type bound = Any | At_least of Key.t | Above of Key.t

(* Content of a freshly allocated block until it leaves the path or the
   load ends, whichever writes its final content first. *)
let placeholder = leaf_content { keys = [||]; payloads = [||]; next_leaf = None }

let level_of_node t block node =
  let slots = max_keys t + 1 in
  let keys = Array.make slots Key.min_key in
  match node with
  | Leaf leaf ->
      let used = Array.length leaf.keys in
      let payloads = Array.make slots "" in
      Array.blit leaf.keys 0 keys 0 used;
      Array.blit leaf.payloads 0 payloads 0 used;
      { is_leaf = true; block; keys; payloads; children = [||]; used;
        next_leaf = leaf.next_leaf }
  | Internal node ->
      let used = Array.length node.separators in
      let children = Array.make (slots + 1) 0 in
      Array.blit node.separators 0 keys 0 used;
      Array.blit node.children 0 children 0 (used + 1);
      { is_leaf = false; block; keys; payloads = [||]; children; used;
        next_leaf = None }

(* The level's content; [next_leaf] overrides a leaf's sibling link. *)
let level_content ?next_leaf level ~count =
  let keys = Array.sub level.keys 0 count in
  if level.is_leaf then
    leaf_content
      {
        keys;
        payloads = Array.sub level.payloads 0 count;
        next_leaf =
          (if Option.is_some next_leaf then next_leaf else level.next_leaf);
      }
  else
    internal_content
      { separators = keys; children = Array.sub level.children 0 (count + 1) }

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
  if level.is_leaf then
    Array.blit level.payloads right_first level.payloads 0 right_count
  else Array.blit level.children right_first level.children 0 (right_count + 1);
  level.used <- right_count;
  level.block <- right_block;
  (up_sep, right_block)

let bulk_load t feed =
  let rec rightmost block levels =
    let node = read_node t block in
    let levels = level_of_node t block node :: levels in
    match node with
    | Leaf _ -> Array.of_list levels
    | Internal { children; _ } ->
        rightmost children.(Array.length children - 1) levels
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
        level_of_node t root
          (Internal { separators = [| sep |]; children = [| t.root; right_block |] })
      in
      t.root <- root;
      path := Array.append !path [| level |]
    end
    else begin
      let level = !path.(i) in
      level.keys.(level.used) <- sep;
      level.children.(level.used + 1) <- right_block;
      level.used <- level.used + 1;
      if level.used > max_keys t then
        let up_sep, new_right = split_level t level in
        carry (i + 1) up_sep new_right
    end
  in
  let add key payload =
    let admitted =
      match !bound with
      | Any -> true
      | At_least floor -> Key.compare key floor >= 0
      | Above last -> Key.compare key last > 0
    in
    if not admitted then
      invalid_arg
        (Format.asprintf "Btree.bulk_load %s: key %a does not ascend" t.tree_name
           Key.pp key);
    bound := Above key;
    let leaf = !path.(0) in
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
