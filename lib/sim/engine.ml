(* The event hot path. At scale-out sizes (bench/exp_scaleout.ml drives
   tens of millions of events per run) this module dominates wall-clock
   time, so it keeps every pending event in flat arrays:

   - a binary min-heap over one unboxed int array, three ints an entry —
     (time, seq) as the key and the entry's slot number — moved together,
     so a sift compares and copies immediate integers: no pointer loads,
     no closure calls, no polymorphic compare, no write barrier;
   - per-slot arrays for what the heap does not order by: the action
     closure, a generation stamp and a live flag. A slot is taken from a
     free stack at schedule time and returned when its event fires or its
     tombstone is reaped, so steady-state scheduling allocates only the
     user's action closure (plus a 4-word handle for the cancellable
     variants — [post_at]/[post_after] skip even that). The slot arrays
     and the heap start at 256 slots and double together, so the heap
     never needs room the slots lack;
   - cancelled-event tombstones are counted and purged in bulk (one O(n)
     filter + Floyd heapify) once they outnumber live events, so mass
     timer cancellation (every RPC timeout that completes normally) can't
     bloat the heap; a cancel drops its closure at once;
   - a fused run loop: inspect the top entry in place and remove it once.

   None of this may change an observable schedule. Events execute in
   strictly increasing (time, seq) order — a unique total order, so heap
   layout, purge timing and slot reuse are invisible to simulation code;
   the chaos fingerprints (test/test_chaos.ml) are the referee.

   Handles are generation-stamped: returning a slot to the free stack
   bumps its stamp, and [cancel] is a no-op unless the handle's stamp
   still matches, so a stale handle can never cancel the slot's next
   occupant. *)

let noop () = ()

let initial_slots = 256

type t = {
  mutable clock : Sim_time.t;
  (* Binary min-heap in entries [0, size): entry i is heap.(3i) = time,
     heap.(3i+1) = seq, heap.(3i+2) = slot. Length 3 × slot capacity. *)
  mutable heap : int array;
  mutable size : int;
  mutable tombstones : int; (* cancelled entries still in the heap *)
  (* Per slot, length = slot capacity. *)
  mutable actions : (unit -> unit) array;
  mutable gens : int array; (* bumped when the slot is freed *)
  mutable live : bool array; (* in the heap and not cancelled *)
  mutable free : int array; (* free-slot stack in [0, free_count) *)
  mutable free_count : int;
  mutable next_seq : int;
  mutable next_fiber_id : int; (* per-engine fiber ids; see Fiber.spawn *)
  root_rng : Rng.t;
  mutable executed : int;
  mutable cancelled : int; (* cumulative, surfaced as sim.events_cancelled *)
}

type handle = { engine : t; slot : int; gen : int }

let create ?(seed = 42) () =
  {
    clock = Sim_time.zero;
    heap = Array.make (3 * initial_slots) 0;
    size = 0;
    tombstones = 0;
    actions = Array.make initial_slots noop;
    gens = Array.make initial_slots 0;
    live = Array.make initial_slots false;
    (* Slot 0 on top, so slots are first taken in ascending order. *)
    free = Array.init initial_slots (fun i -> initial_slots - 1 - i);
    free_count = initial_slots;
    next_seq = 0;
    next_fiber_id = 0;
    root_rng = Rng.create ~seed;
    executed = 0;
    cancelled = 0;
  }

let now t = t.clock

let alloc_fiber_id t =
  t.next_fiber_id <- t.next_fiber_id + 1;
  t.next_fiber_id

let rng t = t.root_rng

(* Double the slot capacity, and the heap with it; the new slots go on
   the (empty) free stack, lowest on top. *)
let grow t =
  let n = Array.length t.gens in
  let extend a fill =
    let grown = Array.make (2 * n) fill in
    Array.blit a 0 grown 0 n;
    grown
  in
  let heap = Array.make (6 * n) 0 in
  Array.blit t.heap 0 heap 0 (3 * t.size);
  t.heap <- heap;
  t.actions <- extend t.actions noop;
  t.gens <- extend t.gens 0;
  t.live <- extend t.live false;
  t.free <- Array.init (2 * n) (fun i -> (2 * n) - 1 - i);
  t.free_count <- n

(* Every index the sifts touch lies inside [0, 3 × size) ⊆ the heap's
   length, so they skip the bounds checks. *)
let[@inline] get (heap : int array) i = Array.unsafe_get heap i

let[@inline] set (heap : int array) i (v : int) = Array.unsafe_set heap i v

(* Place (time, seq, slot) at entry [i] or above it. (time, seq) ascending
   is the unique total order all determinism rests on. *)
let sift_up heap i time seq slot =
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 1 in
    let p = 3 * parent in
    let parent_time = get heap p in
    if time < parent_time || (time = parent_time && seq < get heap (p + 1))
    then begin
      let c = 3 * !i in
      set heap c parent_time;
      set heap (c + 1) (get heap (p + 1));
      set heap (c + 2) (get heap (p + 2));
      i := parent
    end
    else continue := false
  done;
  let c = 3 * !i in
  set heap c time;
  set heap (c + 1) seq;
  set heap (c + 2) slot

(* Place (time, seq, slot) at entry [i] or below it, in a heap of [size]
   entries. *)
let sift_down heap size i time seq slot =
  let i = ref i in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 in
    if left >= size then continue := false
    else begin
      let l = 3 * left in
      let child =
        if left + 1 < size then begin
          let r = l + 3 in
          let left_time = get heap l and right_time = get heap r in
          if
            right_time < left_time
            || (right_time = left_time && get heap (r + 1) < get heap (l + 1))
          then left + 1
          else left
        end
        else left
      in
      let c = 3 * child in
      let child_time = get heap c in
      if child_time < time || (child_time = time && get heap (c + 1) < seq)
      then begin
        let h = 3 * !i in
        set heap h child_time;
        set heap (h + 1) (get heap (c + 1));
        set heap (h + 2) (get heap (c + 2));
        i := child
      end
      else continue := false
    end
  done;
  let h = 3 * !i in
  set heap h time;
  set heap (h + 1) seq;
  set heap (h + 2) slot

(* Remove the root: the last entry fills the hole from the top down. *)
let remove_top t =
  let size = t.size - 1 in
  t.size <- size;
  if size > 0 then begin
    let heap = t.heap in
    let last = 3 * size in
    sift_down heap size 0 (get heap last) (get heap (last + 1))
      (get heap (last + 2))
  end

(* Return a fired or reaped slot to the free stack. Bumping its stamp
   invalidates every outstanding handle to this occupancy; dropping the
   action lets the closure be collected. *)
let release t slot =
  t.gens.(slot) <- t.gens.(slot) + 1;
  t.live.(slot) <- false;
  t.actions.(slot) <- noop;
  t.free.(t.free_count) <- slot;
  t.free_count <- t.free_count + 1

(* Take a slot for [action] at [time] and push its entry; the slot. *)
let add t time action =
  if t.free_count = 0 then grow t;
  let free_count = t.free_count - 1 in
  t.free_count <- free_count;
  let slot = t.free.(free_count) in
  t.actions.(slot) <- action;
  t.live.(slot) <- true;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let size = t.size in
  t.size <- size + 1;
  sift_up t.heap size time seq slot;
  slot

(* Drop every tombstone in one pass and rebuild the heap bottom-up
   (Floyd): O(n) total, amortized O(1) per cancellation since the purge
   only runs when tombstones outnumber live events. Pop order depends
   only on (time, seq), so rebuilding the layout is unobservable. *)
let purge t =
  let heap = t.heap in
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    let e = 3 * i in
    let slot = heap.(e + 2) in
    if t.live.(slot) then begin
      let k = 3 * !kept in
      heap.(k) <- heap.(e);
      heap.(k + 1) <- heap.(e + 1);
      heap.(k + 2) <- slot;
      incr kept
    end
    else release t slot
  done;
  let size = !kept in
  t.size <- size;
  t.tombstones <- 0;
  for i = (size / 2) - 1 downto 0 do
    let e = 3 * i in
    sift_down heap size i heap.(e) heap.(e + 1) heap.(e + 2)
  done

let post_at t time action =
  if Sim_time.compare time t.clock < 0 then
    invalid_arg "Engine.post_at: time is in the past";
  ignore (add t time action : int)

let post_after t span action =
  if span < 0 then invalid_arg "Engine.post_after: negative span";
  post_at t (Sim_time.add t.clock span) action

let schedule_at t time action =
  if Sim_time.compare time t.clock < 0 then
    invalid_arg "Engine.schedule_at: time is in the past";
  let slot = add t time action in
  { engine = t; slot; gen = t.gens.(slot) }

let schedule_after t span action =
  if span < 0 then invalid_arg "Engine.schedule_after: negative span";
  schedule_at t (Sim_time.add t.clock span) action

let cancel { engine = t; slot; gen } =
  (* A stale stamp means the event already fired (or was reaped) and the
     slot may have a new occupant: no-op, exactly the seed semantics for
     cancelling a fired event. *)
  if t.gens.(slot) = gen && t.live.(slot) then begin
    t.live.(slot) <- false;
    t.actions.(slot) <- noop;
    t.tombstones <- t.tombstones + 1;
    t.cancelled <- t.cancelled + 1;
    (* Purge when tombstones dominate: keeps heap operations O(log live)
       and memory O(live) under mass cancellation. The 64 floor avoids
       thrashing tiny heaps. *)
    if t.tombstones > 64 && t.tombstones * 2 > t.size then purge t
  end

(* Pop the top entry, a live one: advance the clock, free the slot, run. *)
let fire t time slot =
  remove_top t;
  t.clock <- time;
  t.executed <- t.executed + 1;
  let action = t.actions.(slot) in
  release t slot;
  action ()

(* Pop the top entry, a tombstone: a cancelled timeout never happened — no
   clock advance, no execution. *)
let reap t slot =
  remove_top t;
  t.tombstones <- t.tombstones - 1;
  release t slot

let run ?until t =
  let limit = match until with None -> max_int | Some l -> l in
  let continue = ref true in
  while !continue && t.size > 0 do
    let slot = t.heap.(2) in
    if not t.live.(slot) then reap t slot
    else begin
      let time = t.heap.(0) in
      if time > limit then continue := false else fire t time slot
    end
  done;
  match until with
  | Some limit when Sim_time.compare t.clock limit < 0 -> t.clock <- limit
  | Some _ | None -> ()

let run_for t span = run ~until:(Sim_time.add t.clock span) t

let pending t = t.size - t.tombstones

let events_executed t = t.executed

let events_cancelled t = t.cancelled
