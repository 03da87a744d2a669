open Tandem_disk

(* Both images are indexed by block number: slot [b] holds block [b]'s
   content, [vacant] when it is unallocated. The arrays double on demand. *)
type t = {
  volume : Volume.t;
  cache : Cache.t;
  mutable current : Block_content.t array;
  mutable disk : Block_content.t array;
  mutable live : int; (* allocated blocks in [current] *)
  mutable next_block : int;
  mutable charging : bool;
}

(* The one empty slot, told apart by physical equality: no block a caller
   writes can be this value. *)
let vacant = Block_content.Relative_segment { base_slot = -1; slots = [||] }

let create volume ~cache_capacity =
  {
    volume;
    cache = Cache.create ~capacity:cache_capacity;
    current = Array.make 256 vacant;
    disk = Array.make 256 vacant;
    live = 0;
    next_block = 0;
    charging = true;
  }

let get image block =
  if block >= 0 && block < Array.length image then image.(block) else vacant

let holds image block = get image block != vacant

(* [image], or a copy of it doubled until it has a slot for [block]. *)
let with_slot image block =
  let length = Array.length image in
  if block < length then image
  else begin
    let bigger = Array.make (Int.max (block + 1) (2 * length)) vacant in
    Array.blit image 0 bigger 0 length;
    bigger
  end

let set_current t block content =
  t.current <- with_slot t.current block;
  if t.current.(block) == vacant then t.live <- t.live + 1;
  t.current.(block) <- content

let set_charging t flag = t.charging <- flag

let flush_block t block =
  let content = get t.current block in
  if content != vacant then begin
    t.disk <- with_slot t.disk block;
    t.disk.(block) <- content;
    Cache.clean t.cache block
  end

let handle_eviction t = function
  | Some { Cache.block; dirty } when dirty ->
      if t.charging then Volume.write_block t.volume block;
      flush_block t block
  | Some _ | None -> ()

(* Cache and dirty bookkeeping always runs (crash semantics must hold even
   during uncharged setup); [charging] only controls physical I/O and the
   fiber sleeps it implies. *)
let touch_for_read t block =
  match Cache.touch t.cache block with
  | `Hit -> ()
  | `Miss evicted ->
      handle_eviction t evicted;
      if t.charging then Volume.read_block t.volume block

let touch_for_write t block =
  (match Cache.touch t.cache block with
  | `Hit -> ()
  | `Miss evicted ->
      (* A whole-block write needs no physical read first. *)
      handle_eviction t evicted);
  Cache.mark_dirty t.cache block

let alloc t content =
  let block = t.next_block in
  t.next_block <- t.next_block + 1;
  set_current t block content;
  touch_for_write t block;
  block

let read t block =
  if not (holds t.current block) then raise Not_found;
  touch_for_read t block;
  (* Fetch after the touch: the physical read may have suspended the fiber,
     and the block may have been rewritten meanwhile. *)
  let content = get t.current block in
  if content == vacant then raise Not_found;
  content

let write t block content =
  if not (holds t.current block) then
    invalid_arg "Store.write: unallocated block";
  t.current.(block) <- content;
  touch_for_write t block

let free t block =
  if holds t.current block then begin
    t.current.(block) <- vacant;
    t.live <- t.live - 1
  end;
  if holds t.disk block then t.disk.(block) <- vacant;
  Cache.drop t.cache block

let flush_all t =
  (* Writes performed while charging was off bypass the cache entirely; a
     setup phase must end with [overwrite_disk_image], not [flush_all]. *)
  List.iter
    (fun block ->
      if t.charging then Volume.write_block t.volume block;
      flush_block t block)
    (Cache.dirty_blocks t.cache)

let crash t =
  t.current <- Array.copy t.disk;
  t.live <-
    Array.fold_left
      (fun live slot -> if slot != vacant then live + 1 else live)
      0 t.current;
  Cache.clear t.cache

let overwrite_disk_image t =
  t.disk <- Array.copy t.current;
  Cache.clear t.cache

let block_count t = t.live

let dirty_count t = List.length (Cache.dirty_blocks t.cache)

let cache_hits t = Cache.hits t.cache

let cache_misses t = Cache.misses t.cache

let snapshot t =
  (* One scan from the top builds the list in ascending order. *)
  let blocks = ref [] in
  for block = Array.length t.current - 1 downto 0 do
    let content = t.current.(block) in
    if content != vacant then blocks := (block, content) :: !blocks
  done;
  !blocks

let restore t blocks =
  Array.fill t.current 0 (Array.length t.current) vacant;
  t.live <- 0;
  Cache.clear t.cache;
  List.iter
    (fun (block, content) ->
      if block < 0 then invalid_arg "Store.restore: negative block";
      set_current t block content;
      t.next_block <- Int.max t.next_block (block + 1))
    blocks
