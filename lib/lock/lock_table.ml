open Tandem_sim

type resource =
  | File_lock of string
  | Record_lock of { file : string; key : string }

let pp_resource formatter = function
  | File_lock file -> Format.fprintf formatter "file %s" file
  | Record_lock { file; key } -> Format.fprintf formatter "%s[%S]" file key

let file_of_resource = function
  | File_lock file -> file
  | Record_lock { file; _ } -> file

type waiter = {
  wait_owner : Transid.t;
  resource : resource;
  resume : [ `Granted | `Timeout ] Fiber.resume;
  mutable pending : bool;
  mutable timer : Engine.handle option;
}

type file_state = {
  mutable file_owner : Transid.t option;
  mutable record_owners : Transid.t Tbl.String.t; (* key -> owner *)
}

(* Grantability only ever changes when a lock in the SAME file is released
   (a grant can never unblock another request, and holders never expire),
   so waiters queue per file: release_all wakes only the queues of files
   the finishing owner actually touched. A per-owner resource index makes
   release_all/locks_of O(locks held) instead of O(table). *)
type t = {
  engine : Engine.t;
  (* Counters resolve on first use, so a run that never waits shows no
     lock.waits line. *)
  c_requests : Metrics.counter Lazy.t;
  c_waits : Metrics.counter Lazy.t;
  c_grants_after_wait : Metrics.counter Lazy.t;
  c_timeouts : Metrics.counter Lazy.t;
  c_release_all : Metrics.counter Lazy.t;
  spans : Span.t option;
  table_name : string;
  files : file_state Tbl.String.t;
  owner_index : (resource, unit) Hashtbl.t Tbl.String.t;
      (* by [Transid.to_string] *)
  wait_queues : waiter Queue.t Tbl.String.t; (* file -> FIFO *)
  mutable waiting : int; (* pending waiters across all queues *)
}

let create ?spans engine ~metrics ~name =
  {
    engine;
    c_requests = lazy (Metrics.counter metrics "lock.requests");
    c_waits = lazy (Metrics.counter metrics "lock.waits");
    c_grants_after_wait = lazy (Metrics.counter metrics "lock.grants_after_wait");
    c_timeouts = lazy (Metrics.counter metrics "lock.timeouts");
    c_release_all = lazy (Metrics.counter metrics "lock.release_all");
    spans;
    table_name = name;
    files = Tbl.String.create 32;
    owner_index = Tbl.String.create 32;
    wait_queues = Tbl.String.create 8;
    waiting = 0;
  }

let file_state t file =
  match Tbl.String.find_opt t.files file with
  | Some state -> state
  | None ->
      let state = { file_owner = None; record_owners = Tbl.String.create 16 } in
      Tbl.String.replace t.files file state;
      state

let other_record_owners state ~owner =
  Tbl.String.fold
    (fun _ record_owner found ->
      found || not (Transid.equal record_owner owner))
    state.record_owners false

let grantable t ~owner resource =
  match resource with
  | Record_lock { file; key } -> (
      let state = file_state t file in
      match state.file_owner with
      | Some file_owner when not (Transid.equal file_owner owner) -> false
      | Some _ | None -> (
          match Tbl.String.find_opt state.record_owners key with
          | Some record_owner -> Transid.equal record_owner owner
          | None -> true))
  | File_lock file ->
      let state = file_state t file in
      (match state.file_owner with
      | Some file_owner -> Transid.equal file_owner owner
      | None -> true)
      && not (other_record_owners state ~owner)

let note_granted t ~owner resource =
  let key = Transid.to_string owner in
  let held =
    match Tbl.String.find_opt t.owner_index key with
    | Some held -> held
    | None ->
        let held = Hashtbl.create 8 in
        Tbl.String.replace t.owner_index key held;
        held
  in
  Hashtbl.replace held resource ()

let grant t ~owner resource =
  match resource with
  | Record_lock { file; key } ->
      let state = file_state t file in
      (* A file-lock holder's record access is already covered. *)
      if not (Tbl.String.mem state.record_owners key) then begin
        Tbl.String.replace state.record_owners key owner;
        note_granted t ~owner resource
      end
  | File_lock file ->
      (file_state t file).file_owner <- Some owner;
      note_granted t ~owner resource

(* Wake every waiter on the given files whose request became grantable, in
   FIFO order per file; a grant can unblock later grants only by release,
   never by another grant, so one pass over each queue suffices. Timed-out
   waiters linger in the queues with [pending = false] (removing from the
   middle of a queue is O(n)); this pass discards them. *)
let wake_grantable t files =
  List.iter
    (fun file ->
      match Tbl.String.find_opt t.wait_queues file with
      | None -> ()
      | Some queue ->
          let passes = Queue.length queue in
          for _ = 1 to passes do
            (* take_opt: a woken fiber resumes synchronously and may re-enter
               the table, shrinking this queue under the rotation. *)
            match Queue.take_opt queue with
            | None -> ()
            | Some waiter ->
                if not waiter.pending then
                  () (* lazy removal of timed-out entries *)
                else if grantable t ~owner:waiter.wait_owner waiter.resource
                then begin
                  waiter.pending <- false;
                  t.waiting <- t.waiting - 1;
                  (match waiter.timer with
                  | Some h -> Engine.cancel h
                  | None -> ());
                  grant t ~owner:waiter.wait_owner waiter.resource;
                  Metrics.incr (Lazy.force t.c_grants_after_wait);
                  waiter.resume (Ok `Granted)
                end
                else Queue.add waiter queue
          done;
          if Queue.is_empty queue then Tbl.String.remove t.wait_queues file)
    files

let enqueue_waiter t waiter =
  let file = file_of_resource waiter.resource in
  let queue =
    match Tbl.String.find_opt t.wait_queues file with
    | Some queue -> queue
    | None ->
        let queue = Queue.create () in
        Tbl.String.replace t.wait_queues file queue;
        queue
  in
  Queue.add waiter queue;
  t.waiting <- t.waiting + 1

let acquire t ~owner ~timeout resource =
  Metrics.incr (Lazy.force t.c_requests);
  if grantable t ~owner resource then begin
    grant t ~owner resource;
    `Granted
  end
  else begin
    Metrics.incr (Lazy.force t.c_waits);
    (match t.spans with
    | Some spans -> Span.incr_lock_waits spans owner
    | None -> ());
    Fiber.suspend (fun resume ->
        let waiter =
          { wait_owner = owner; resource; resume; pending = true; timer = None }
        in
        waiter.timer <-
          Some
            (Engine.schedule_after t.engine timeout (fun () ->
                 if waiter.pending then begin
                   (* Stays queued; wake_grantable discards it lazily. *)
                   waiter.pending <- false;
                   t.waiting <- t.waiting - 1;
                   Metrics.incr (Lazy.force t.c_timeouts);
                   resume (Ok `Timeout)
                 end));
        enqueue_waiter t waiter)
  end

let try_acquire t ~owner resource =
  if grantable t ~owner resource then begin
    grant t ~owner resource;
    true
  end
  else false

let release_all t ~owner =
  let key = Transid.to_string owner in
  (match Tbl.String.find_opt t.owner_index key with
  | None -> ()
  | Some held ->
      Tbl.String.remove t.owner_index key;
      let touched = Tbl.String.create 8 in
      Hashtbl.iter
        (fun resource () ->
          let file = file_of_resource resource in
          Tbl.String.replace touched file ();
          match resource with
          | File_lock _ -> (
              let state = file_state t file in
              match state.file_owner with
              | Some file_owner when Transid.equal file_owner owner ->
                  state.file_owner <- None
              | Some _ | None -> ())
          | Record_lock { key; _ } -> (
              let state = file_state t file in
              match Tbl.String.find_opt state.record_owners key with
              | Some record_owner when Transid.equal record_owner owner ->
                  Tbl.String.remove state.record_owners key
              | Some _ | None -> ()))
        held;
      wake_grantable t
        (Tbl.String.fold (fun file () acc -> file :: acc) touched []));
  Metrics.incr (Lazy.force t.c_release_all)

let holder t resource =
  match resource with
  | File_lock file -> (
      match Tbl.String.find_opt t.files file with
      | Some state -> state.file_owner
      | None -> None)
  | Record_lock { file; key } -> (
      match Tbl.String.find_opt t.files file with
      | Some state -> (
          match Tbl.String.find_opt state.record_owners key with
          | Some _ as direct -> direct
          | None -> state.file_owner)
      | None -> None)

let locks_of t ~owner =
  match Tbl.String.find_opt t.owner_index (Transid.to_string owner) with
  | None -> []
  | Some held -> Hashtbl.fold (fun resource () acc -> resource :: acc) held []

let locked_count t =
  Tbl.String.fold
    (fun _ state acc ->
      acc
      + (match state.file_owner with Some _ -> 1 | None -> 0)
      + Tbl.String.length state.record_owners)
    t.files 0

let waiting_count t = t.waiting

let reset t =
  Tbl.String.reset t.files;
  Tbl.String.reset t.owner_index;
  Tbl.String.iter
    (fun _ queue ->
      Queue.iter
        (fun waiter ->
          if waiter.pending then begin
            waiter.pending <- false;
            match waiter.timer with Some h -> Engine.cancel h | None -> ()
          end)
        queue)
    t.wait_queues;
  Tbl.String.reset t.wait_queues;
  t.waiting <- 0
