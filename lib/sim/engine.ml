(* The event hot path. At scale-out sizes (bench/exp_scaleout.ml drives
   tens of millions of events per run) this module dominates wall-clock
   time, so it trades the generic [Heap] + one-record-per-event design for:

   - a monomorphic binary heap over pooled event records with the
     (time, seq) comparison inlined — no closure indirection, no
     polymorphic compare;
   - event-record pooling: fired and reaped records go to a freelist and
     are reused by later schedules, so steady-state scheduling allocates
     only the user's action closure (plus a 4-word handle for the
     cancellable variants — [post_at]/[post_after] skip even that);
   - cancelled-event tombstones are counted and purged in bulk (one O(n)
     filter + Floyd heapify) once they outnumber live events, so mass
     timer cancellation (every RPC timeout that completes normally) can't
     bloat the heap;
   - a fused run loop: inspect the top record in place and remove it once
     — the seed engine paid peek + pop, two O(log n) traversals per event.

   None of this may change an observable schedule. Events execute in
   strictly increasing (time, seq) order — a unique total order, so heap
   layout, purge timing and record reuse are invisible to simulation code;
   the chaos fingerprints (test/test_chaos.ml) are the referee.

   Handles are generation-stamped: retiring a record bumps its [gen], and
   [cancel] is a no-op unless the handle's stamp still matches, so a stale
   handle can never cancel the record's next occupant. *)

type event = {
  mutable time : Sim_time.t;
  mutable seq : int;
  mutable gen : int; (* bumped when the record is retired to the pool *)
  mutable live : bool; (* in the heap and not cancelled *)
  mutable action : unit -> unit;
}

let noop () = ()

(* Sentinel filling unused array slots; never scheduled, never executed. *)
let sentinel () = { time = 0; seq = -1; gen = 0; live = false; action = noop }

type t = {
  mutable clock : Sim_time.t;
  mutable heap : event array; (* binary min-heap in [0, size) *)
  mutable size : int;
  mutable tombstones : int; (* cancelled records still in the heap *)
  mutable pool : event array; (* freelist stack in [0, pool_size) *)
  mutable pool_size : int;
  mutable next_seq : int;
  mutable next_fiber_id : int; (* per-engine fiber ids; see Fiber.spawn *)
  root_rng : Rng.t;
  mutable executed : int;
  mutable cancelled : int; (* cumulative, surfaced as sim.events_cancelled *)
}

type handle = { engine : t; h_ev : event; h_gen : int }

let create ?(seed = 42) () =
  {
    clock = Sim_time.zero;
    heap = Array.make 256 (sentinel ());
    size = 0;
    tombstones = 0;
    pool = Array.make 256 (sentinel ());
    pool_size = 0;
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

(* (time, seq) ascending: the unique total order all determinism rests on.
   Sim_time.t is int, so this is two integer compares, no calls. *)
let[@inline] earlier a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let sift_up t i =
  let ev = t.heap.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let p = t.heap.(parent) in
    if earlier ev p then begin
      t.heap.(!i) <- p;
      i := parent
    end
    else continue := false
  done;
  t.heap.(!i) <- ev

let sift_down t i =
  let ev = t.heap.(i) in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let left = (2 * !i) + 1 in
    if left >= t.size then continue := false
    else begin
      let right = left + 1 in
      let child =
        if right < t.size && earlier t.heap.(right) t.heap.(left) then right
        else left
      in
      if earlier t.heap.(child) ev then begin
        t.heap.(!i) <- t.heap.(child);
        i := child
      end
      else continue := false
    end
  done;
  t.heap.(!i) <- ev

let heap_add t ev =
  if t.size = Array.length t.heap then begin
    let grown = Array.make (2 * t.size) (sentinel ()) in
    Array.blit t.heap 0 grown 0 t.size;
    t.heap <- grown
  end;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Remove the root. The vacated tail slot keeps its stale pointer — the
   record is on the freelist anyway, and the slot is overwritten by the
   next add. *)
let remove_top t =
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0
  end

(* Return a fired or reaped record to the pool for reuse. Bumping [gen]
   invalidates every outstanding handle to this occupancy; dropping the
   action lets the closure be collected. *)
let retire t ev =
  ev.gen <- ev.gen + 1;
  ev.live <- false;
  ev.action <- noop;
  if t.pool_size = Array.length t.pool then begin
    let grown = Array.make (2 * t.pool_size) (sentinel ()) in
    Array.blit t.pool 0 grown 0 t.pool_size;
    t.pool <- grown
  end;
  t.pool.(t.pool_size) <- ev;
  t.pool_size <- t.pool_size + 1

let fresh_event t time action =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.pool_size > 0 then begin
    t.pool_size <- t.pool_size - 1;
    let ev = t.pool.(t.pool_size) in
    ev.time <- time;
    ev.seq <- seq;
    ev.live <- true;
    ev.action <- action;
    ev
  end
  else { time; seq; gen = 0; live = true; action }

(* Drop every tombstone in one pass and rebuild the heap bottom-up
   (Floyd): O(n) total, amortized O(1) per cancellation since the purge
   only runs when tombstones outnumber live events. Pop order depends
   only on (time, seq), so rebuilding the layout is unobservable. *)
let purge t =
  let kept = ref 0 in
  for i = 0 to t.size - 1 do
    let ev = t.heap.(i) in
    if ev.live then begin
      t.heap.(!kept) <- ev;
      incr kept
    end
    else retire t ev
  done;
  t.size <- !kept;
  t.tombstones <- 0;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done

let post_at t time action =
  if Sim_time.compare time t.clock < 0 then
    invalid_arg "Engine.post_at: time is in the past";
  heap_add t (fresh_event t time action)

let post_after t span action =
  if span < 0 then invalid_arg "Engine.post_after: negative span";
  post_at t (Sim_time.add t.clock span) action

let schedule_at t time action =
  if Sim_time.compare time t.clock < 0 then
    invalid_arg "Engine.schedule_at: time is in the past";
  let ev = fresh_event t time action in
  heap_add t ev;
  { engine = t; h_ev = ev; h_gen = ev.gen }

let schedule_after t span action =
  if span < 0 then invalid_arg "Engine.schedule_after: negative span";
  schedule_at t (Sim_time.add t.clock span) action

let cancel { engine = t; h_ev = ev; h_gen } =
  (* A stale stamp means the event already fired (or was reaped) and the
     record may have a new occupant: no-op, exactly the seed semantics for
     cancelling a fired event. *)
  if ev.gen = h_gen && ev.live then begin
    ev.live <- false;
    t.tombstones <- t.tombstones + 1;
    t.cancelled <- t.cancelled + 1;
    (* Purge when tombstones dominate: keeps heap operations O(log live)
       and memory O(live) under mass cancellation. The 64 floor avoids
       thrashing tiny heaps. *)
    if t.tombstones > 64 && t.tombstones * 2 > t.size then purge t
  end

let step t =
  if t.size = 0 then false
  else begin
    let top = t.heap.(0) in
    remove_top t;
    if top.live then begin
      t.clock <- top.time;
      t.executed <- t.executed + 1;
      let action = top.action in
      retire t top;
      action ()
    end
    else begin
      (* Reaped tombstone: a cancelled timeout never happened — no clock
         advance, no execution. *)
      t.tombstones <- t.tombstones - 1;
      retire t top
    end;
    true
  end

let run ?until t =
  let limit = match until with None -> max_int | Some l -> l in
  let continue = ref true in
  while !continue && t.size > 0 do
    let top = t.heap.(0) in
    if not top.live then begin
      remove_top t;
      t.tombstones <- t.tombstones - 1;
      retire t top
    end
    else if top.time > limit then continue := false
    else begin
      remove_top t;
      t.clock <- top.time;
      t.executed <- t.executed + 1;
      let action = top.action in
      retire t top;
      action ()
    end
  done;
  match until with
  | Some limit when Sim_time.compare t.clock limit < 0 -> t.clock <- limit
  | Some _ | None -> ()

let run_for t span = run ~until:(Sim_time.add t.clock span) t

let pending t = t.size - t.tombstones

let events_executed t = t.executed

let events_cancelled t = t.cancelled
