type outcome = Pending | Committed | Aborted of string

let outcome_to_string = function
  | Pending -> "pending"
  | Committed -> "committed"
  | Aborted reason -> "aborted: " ^ reason

type span = {
  span_id : string;
  begin_at : Sim_time.t;
  mutable phase1_at : Sim_time.t option;
  mutable phase2_at : Sim_time.t option;
  mutable backout_at : Sim_time.t option;
  mutable end_at : Sim_time.t option;
  mutable outcome : outcome;
  mutable messages : int;
  mutable prepares : int;
  mutable phase2_msgs : int;
  mutable forced_writes : int;
  mutable lock_waits : int;
  mutable restarts : int;
  mutable images_undone : int;
  mutable remote_nodes : int;
  mutable state_broadcasts : int;
}

(* The finished spans, flat: slot [s] keeps its id in [ids.(s)], its
   outcome in [outcomes.(s)] and its stamps and counts in [fields], at
   [s * width + offset] for the offsets below; a stamp not yet taken is
   [no_stamp]. [index] is an open-addressing table of live slot numbers
   (-1 empty) hashed by id, at most half full. The arrays start at
   [first_slots] slots at the first [finish] and double up to the
   registry's capacity; slots not live keep stale values until reused. *)
type ring = {
  ids : string array;
  outcomes : outcome array;
  fields : int array;
  index : int array;
}

let begin_at = 0
let phase1_at = 1
let phase2_at = 2
let backout_at = 3
let end_at = 4
let messages = 5
let prepares = 6
let phase2_msgs = 7
let forced_writes = 8
let lock_waits = 9
let restarts = 10
let images_undone = 11
let remote_nodes = 12
let state_broadcasts = 13
let width = 14

let no_stamp = -1

let first_slots = 16

(* The live slots are the [finished_size] slots from [head] on, modulo
   [capacity], oldest first; [head] stays 0 until the ring is full, so
   while it grows they are its first slots. *)
type t = {
  engine : Engine.t;
  capacity : int;
  active_table : span Tbl.String.t;
  mutable ring : ring option;
  mutable head : int;
  mutable finished_size : int;
  mutable total_started : int;
  mutable total_committed : int;
  mutable total_aborted : int;
}

let create ?(capacity = 4096) engine =
  if capacity < 1 then invalid_arg "Span.create: capacity must be positive";
  {
    engine;
    capacity;
    active_table = Tbl.String.create 256;
    ring = None;
    head = 0;
    finished_size = 0;
    total_started = 0;
    total_committed = 0;
    total_aborted = 0;
  }

let start t id =
  match Tbl.String.find_opt t.active_table id with
  | Some span -> span
  | None ->
      let span =
        {
          span_id = id;
          begin_at = Engine.now t.engine;
          phase1_at = None;
          phase2_at = None;
          backout_at = None;
          end_at = None;
          outcome = Pending;
          messages = 0;
          prepares = 0;
          phase2_msgs = 0;
          forced_writes = 0;
          lock_waits = 0;
          restarts = 0;
          images_undone = 0;
          remote_nodes = 0;
          state_broadcasts = 0;
        }
      in
      Tbl.String.replace t.active_table id span;
      t.total_started <- t.total_started + 1;
      span

(* The [i]th live slot, oldest first. *)
let nth t i = (t.head + i) mod t.capacity

(* The live slot holding [id], or -1. *)
let slot_of ring id =
  let mask = Array.length ring.index - 1 in
  let rec probe i =
    let slot = ring.index.(i) in
    if slot < 0 || String.equal ring.ids.(slot) id then slot
    else probe ((i + 1) land mask)
  in
  probe (Hashtbl.hash id land mask)

(* Point [ring.ids.(slot)]'s index entry at [slot]: a newer span of the same
   id replaces an older one. *)
let index_slot ring slot =
  let mask = Array.length ring.index - 1 in
  let id = ring.ids.(slot) in
  let rec probe i =
    let found = ring.index.(i) in
    if found < 0 || String.equal ring.ids.(found) id then ring.index.(i) <- slot
    else probe ((i + 1) land mask)
  in
  probe (Hashtbl.hash id land mask)

let reindex t ring =
  Array.fill ring.index 0 (Array.length ring.index) (-1);
  for i = 0 to t.finished_size - 1 do
    index_slot ring (nth t i)
  done

(* A ring of [slots] slots holding the live slots of [t]'s ring, which
   start at slot 0. *)
let resize t slots =
  let rec pow2 n = if n >= 2 * slots then n else pow2 (2 * n) in
  let ring =
    {
      ids = Array.make slots "";
      outcomes = Array.make slots Pending;
      fields = Array.make (slots * width) 0;
      index = Array.make (pow2 1) (-1);
    }
  in
  Option.iter
    (fun old ->
      Array.blit old.ids 0 ring.ids 0 t.finished_size;
      Array.blit old.outcomes 0 ring.outcomes 0 t.finished_size;
      Array.blit old.fields 0 ring.fields 0 (t.finished_size * width))
    t.ring;
  reindex t ring;
  t.ring <- Some ring;
  ring

(* Late events (a retried phase-two delivery, a restart against a resolved
   transid) may still refer to a finished span and are written into its
   slot; unknown ids are dropped — the registry must never be grown by
   stray lock owners or replays. [active] updates an active span; a
   finished one's [field] grows by [n]. *)
let add t id n ~active ~field =
  match Tbl.String.find_opt t.active_table id with
  | Some span -> active span n
  | None -> (
      match t.ring with
      | None -> ()
      | Some ring ->
          let slot = slot_of ring id in
          if slot >= 0 then begin
            let i = (slot * width) + field in
            ring.fields.(i) <- ring.fields.(i) + n
          end)

(* The same for a stamp, which keeps the first time it is taken. *)
let stamp t id ~active ~field =
  let now = Engine.now t.engine in
  match Tbl.String.find_opt t.active_table id with
  | Some span -> active span now
  | None -> (
      match t.ring with
      | None -> ()
      | Some ring ->
          let slot = slot_of ring id in
          let i = (slot * width) + field in
          if slot >= 0 && ring.fields.(i) = no_stamp then ring.fields.(i) <- now)

let mark_phase1 t id =
  stamp t id ~field:phase1_at ~active:(fun span now ->
      if span.phase1_at = None then span.phase1_at <- Some now)

let mark_phase2 t id =
  stamp t id ~field:phase2_at ~active:(fun span now ->
      if span.phase2_at = None then span.phase2_at <- Some now)

let mark_backout t id =
  stamp t id ~field:backout_at ~active:(fun span now ->
      if span.backout_at = None then span.backout_at <- Some now)

let add_messages t id n =
  add t id n ~field:messages ~active:(fun span n -> span.messages <- span.messages + n)

let incr_prepares t id =
  add t id 1 ~field:prepares ~active:(fun span n -> span.prepares <- span.prepares + n)

let incr_phase2_msgs t id =
  add t id 1 ~field:phase2_msgs ~active:(fun span n ->
      span.phase2_msgs <- span.phase2_msgs + n)

let incr_forced_writes t id =
  add t id 1 ~field:forced_writes ~active:(fun span n ->
      span.forced_writes <- span.forced_writes + n)

let incr_lock_waits t id =
  add t id 1 ~field:lock_waits ~active:(fun span n ->
      span.lock_waits <- span.lock_waits + n)

let incr_restarts t id =
  add t id 1 ~field:restarts ~active:(fun span n -> span.restarts <- span.restarts + n)

let add_images_undone t id n =
  add t id n ~field:images_undone ~active:(fun span n ->
      span.images_undone <- span.images_undone + n)

let incr_remote_nodes t id =
  add t id 1 ~field:remote_nodes ~active:(fun span n ->
      span.remote_nodes <- span.remote_nodes + n)

let add_state_broadcasts t id n =
  add t id n ~field:state_broadcasts ~active:(fun span n ->
      span.state_broadcasts <- span.state_broadcasts + n)

let stamp_value = function Some time -> time | None -> no_stamp

let stamp_of value = if value = no_stamp then None else Some value

let store t ring span =
  let slot = nth t t.finished_size in
  let set field value = ring.fields.((slot * width) + field) <- value in
  ring.ids.(slot) <- span.span_id;
  ring.outcomes.(slot) <- span.outcome;
  set begin_at span.begin_at;
  set phase1_at (stamp_value span.phase1_at);
  set phase2_at (stamp_value span.phase2_at);
  set backout_at (stamp_value span.backout_at);
  set end_at (stamp_value span.end_at);
  set messages span.messages;
  set prepares span.prepares;
  set phase2_msgs span.phase2_msgs;
  set forced_writes span.forced_writes;
  set lock_waits span.lock_waits;
  set restarts span.restarts;
  set images_undone span.images_undone;
  set remote_nodes span.remote_nodes;
  set state_broadcasts span.state_broadcasts;
  index_slot ring slot;
  t.finished_size <- t.finished_size + 1

(* A finished span, read back from its slot. *)
let span_at ring slot =
  let get field = ring.fields.((slot * width) + field) in
  {
    span_id = ring.ids.(slot);
    begin_at = get begin_at;
    phase1_at = stamp_of (get phase1_at);
    phase2_at = stamp_of (get phase2_at);
    backout_at = stamp_of (get backout_at);
    end_at = stamp_of (get end_at);
    outcome = ring.outcomes.(slot);
    messages = get messages;
    prepares = get prepares;
    phase2_msgs = get phase2_msgs;
    forced_writes = get forced_writes;
    lock_waits = get lock_waits;
    restarts = get restarts;
    images_undone = get images_undone;
    remote_nodes = get remote_nodes;
    state_broadcasts = get state_broadcasts;
  }

let find t id =
  match Tbl.String.find_opt t.active_table id with
  | Some _ as hit -> hit
  | None -> (
      match t.ring with
      | None -> None
      | Some ring ->
          let slot = slot_of ring id in
          if slot < 0 then None else Some (span_at ring slot))

let finish t id outcome =
  match Tbl.String.find_opt t.active_table id with
  | None -> None (* already finished (or never started): keep the first verdict *)
  | Some span ->
      span.end_at <- Some (Engine.now t.engine);
      span.outcome <- outcome;
      (match outcome with
      | Committed -> t.total_committed <- t.total_committed + 1
      | Aborted _ -> t.total_aborted <- t.total_aborted + 1
      | Pending -> ());
      Tbl.String.remove t.active_table id;
      let ring =
        match t.ring with
        | Some ring
          when t.finished_size < Array.length ring.ids || t.finished_size = t.capacity ->
            ring
        | Some ring -> resize t (Int.min t.capacity (2 * Array.length ring.ids))
        | None -> resize t (Int.min t.capacity first_slots)
      in
      if t.finished_size < t.capacity then store t ring span
      else begin
        (* Full: keep the newest half, this span included, dropping the
           oldest in one step to amortize the index rebuild. *)
        let keep = t.capacity / 2 in
        let older = Int.max 0 (keep - 1) in
        t.head <- nth t (t.finished_size - older);
        t.finished_size <- older;
        reindex t ring;
        if keep > 0 then store t ring span
      end;
      Some span

let duration span =
  Option.map (fun end_at -> Sim_time.diff end_at span.begin_at) span.end_at

let active_count t = Tbl.String.length t.active_table

(* [f slot acc] over the live slots, oldest first. *)
let fold_finished t f acc =
  let rec go i acc = if i = t.finished_size then acc else go (i + 1) (f (nth t i) acc) in
  go 0 acc

let finished t =
  match t.ring with
  | None -> []
  | Some ring -> List.init t.finished_size (fun i -> span_at ring (nth t i))

let finished_count t = t.finished_size

let started_total t = t.total_started

let committed_total t = t.total_committed

let aborted_total t = t.total_aborted

let slowest ?(n = 10) t =
  match t.ring with
  | None -> []
  | Some ring ->
      let newest_first =
        fold_finished t
          (fun slot acc ->
            let get field = ring.fields.((slot * width) + field) in
            (get end_at - get begin_at, slot) :: acc)
          []
      in
      List.stable_sort (fun (a, _) (b, _) -> Int.compare b a) newest_first
      |> List.filteri (fun i _ -> i < n)
      |> List.map (fun (_, slot) -> span_at ring slot)

let abort_reasons t =
  let counts = Hashtbl.create 16 in
  (match t.ring with
  | None -> ()
  | Some ring ->
      fold_finished t
        (fun slot () ->
          match ring.outcomes.(slot) with
          | Aborted reason ->
              Hashtbl.replace counts reason
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts reason))
          | Committed | Pending -> ())
        ());
  Hashtbl.fold (fun reason count acc -> (reason, count) :: acc) counts []
  |> List.sort (fun (ra, a) (rb, b) ->
         match Int.compare b a with 0 -> String.compare ra rb | c -> c)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_stamp formatter = function
  | None -> Format.pp_print_string formatter "-"
  | Some time -> Sim_time.pp formatter time

let pp_span formatter span =
  Format.fprintf formatter
    "%s  begin=%a p1=%a p2=%a backout=%a end=%a  %s  msgs=%d prepares=%d \
     p2msgs=%d forces=%d lockwaits=%d restarts=%d undone=%d remote=%d"
    span.span_id Sim_time.pp span.begin_at pp_stamp span.phase1_at pp_stamp
    span.phase2_at pp_stamp span.backout_at pp_stamp span.end_at
    (outcome_to_string span.outcome)
    span.messages span.prepares span.phase2_msgs span.forced_writes
    span.lock_waits span.restarts span.images_undone span.remote_nodes

let pp_summary ?(top = 10) formatter t =
  Format.fprintf formatter
    "spans: %d started, %d committed, %d aborted, %d still active@."
    t.total_started t.total_committed t.total_aborted (active_count t);
  (match slowest ~n:top t with
  | [] -> ()
  | spans ->
      Format.fprintf formatter "@.slowest transactions:@.";
      List.iter
        (fun span ->
          let d = Option.value ~default:0 (duration span) in
          Format.fprintf formatter "  %8.1f ms  %a@."
            (float_of_int d /. 1e3)
            pp_span span)
        spans);
  match abort_reasons t with
  | [] -> ()
  | reasons ->
      Format.fprintf formatter "@.backout reasons:@.";
      List.iter
        (fun (reason, count) ->
          Format.fprintf formatter "  %5d  %s@." count reason)
        reasons

let stamp_json = function
  | None -> Json.Null
  | Some time -> Json.Int time

let to_json span =
  Json.Obj
    [
      ("transid", Json.String span.span_id);
      ("begin_us", Json.Int span.begin_at);
      ("phase1_us", stamp_json span.phase1_at);
      ("phase2_us", stamp_json span.phase2_at);
      ("backout_us", stamp_json span.backout_at);
      ("end_us", stamp_json span.end_at);
      ("outcome", Json.String (outcome_to_string span.outcome));
      ("messages", Json.Int span.messages);
      ("prepares", Json.Int span.prepares);
      ("phase2_msgs", Json.Int span.phase2_msgs);
      ("forced_writes", Json.Int span.forced_writes);
      ("lock_waits", Json.Int span.lock_waits);
      ("restarts", Json.Int span.restarts);
      ("images_undone", Json.Int span.images_undone);
      ("remote_nodes", Json.Int span.remote_nodes);
      ("state_broadcasts", Json.Int span.state_broadcasts);
    ]

let summary_json ?(top = 10) t =
  Json.Obj
    [
      ("started", Json.Int t.total_started);
      ("committed", Json.Int t.total_committed);
      ("aborted", Json.Int t.total_aborted);
      ("active", Json.Int (active_count t));
      ("slowest", Json.List (List.map to_json (slowest ~n:top t)));
      ( "backout_reasons",
        Json.Obj
          (List.map (fun (reason, count) -> (reason, Json.Int count)) (abort_reasons t))
      );
    ]
