type block = int

(* A circular doubly-linked LRU list through a sentinel entry:
   [sentinel.next] is the most-recently-used block, [sentinel.prev] the
   least. A block-indexed slot array finds a resident block's entry; an
   absent block's slot holds the sentinel itself. *)
type entry = {
  block : block;
  mutable dirty : bool;
  mutable prev : entry; (* towards most-recently-used *)
  mutable next : entry; (* towards least-recently-used *)
}

type t = {
  cap : int;
  sentinel : entry;
  mutable slots : entry array;
  mutable count : int;
  mutable hit_count : int;
  mutable miss_count : int;
}

type eviction = { block : block; dirty : bool }

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  let rec sentinel =
    { block = -1; dirty = false; prev = sentinel; next = sentinel }
  in
  {
    cap = capacity;
    sentinel;
    slots = Array.make 64 sentinel;
    count = 0;
    hit_count = 0;
    miss_count = 0;
  }

let resident t = t.count

(* The entry of a resident block, or the sentinel. *)
let find t block =
  if block >= 0 && block < Array.length t.slots then t.slots.(block)
  else t.sentinel

let unlink entry =
  entry.prev.next <- entry.next;
  entry.next.prev <- entry.prev

let push_front t entry =
  let first = t.sentinel.next in
  entry.prev <- t.sentinel;
  entry.next <- first;
  first.prev <- entry;
  t.sentinel.next <- entry

let ensure_slot t block =
  let length = Array.length t.slots in
  if block >= length then begin
    let slots = Array.make (max (block + 1) (2 * length)) t.sentinel in
    Array.blit t.slots 0 slots 0 length;
    t.slots <- slots
  end

let touch t block =
  if block < 0 then invalid_arg "Cache.touch: negative block";
  let entry = find t block in
  if entry != t.sentinel then begin
    t.hit_count <- t.hit_count + 1;
    if t.sentinel.next != entry then begin
      unlink entry;
      push_front t entry
    end;
    `Hit
  end
  else begin
    t.miss_count <- t.miss_count + 1;
    let evicted =
      if t.count >= t.cap then begin
        let victim = t.sentinel.prev in
        unlink victim;
        t.slots.(victim.block) <- t.sentinel;
        t.count <- t.count - 1;
        Some { block = victim.block; dirty = victim.dirty }
      end
      else None
    in
    ensure_slot t block;
    let entry =
      { block; dirty = false; prev = t.sentinel; next = t.sentinel }
    in
    t.slots.(block) <- entry;
    t.count <- t.count + 1;
    push_front t entry;
    `Miss evicted
  end

let mark_dirty t block =
  let entry = find t block in
  if entry == t.sentinel then
    invalid_arg "Cache.mark_dirty: block not resident";
  entry.dirty <- true

(* The sentinel is never dirty, so these need no residency test. *)
let clean t block = (find t block).dirty <- false

let is_dirty t block = (find t block).dirty

let dirty_blocks t =
  let rec walk entry acc =
    if entry == t.sentinel then acc
    else walk entry.next (if entry.dirty then entry.block :: acc else acc)
  in
  List.sort Int.compare (walk t.sentinel.next [])

let drop t block =
  let entry = find t block in
  if entry != t.sentinel then begin
    unlink entry;
    t.slots.(block) <- t.sentinel;
    t.count <- t.count - 1
  end

let clear t =
  let rec walk entry =
    if entry != t.sentinel then begin
      t.slots.(entry.block) <- t.sentinel;
      walk entry.next
    end
  in
  walk t.sentinel.next;
  t.sentinel.next <- t.sentinel;
  t.sentinel.prev <- t.sentinel;
  t.count <- 0

let hits t = t.hit_count

let misses t = t.miss_count
