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
  wait_owner : string;
  resource : resource;
  resume : [ `Granted | `Timeout ] Fiber.resume;
  mutable pending : bool;
  mutable timer : Engine.handle option;
}

type file_state = {
  mutable file_owner : string option;
  mutable record_owners : (string, string) Hashtbl.t; (* key -> owner *)
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
  files : (string, file_state) Hashtbl.t;
  owner_index : (string, (resource, unit) Hashtbl.t) Hashtbl.t;
  wait_queues : (string, waiter Queue.t) Hashtbl.t; (* file -> FIFO *)
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
    files = Hashtbl.create 32;
    owner_index = Hashtbl.create 32;
    wait_queues = Hashtbl.create 8;
    waiting = 0;
  }

let file_state t file =
  match Hashtbl.find_opt t.files file with
  | Some state -> state
  | None ->
      let state = { file_owner = None; record_owners = Hashtbl.create 16 } in
      Hashtbl.replace t.files file state;
      state

let other_record_owners state ~owner =
  Hashtbl.fold
    (fun _ record_owner found ->
      found || not (String.equal record_owner owner))
    state.record_owners false

let grantable t ~owner resource =
  match resource with
  | Record_lock { file; key } -> (
      let state = file_state t file in
      match state.file_owner with
      | Some file_owner when not (String.equal file_owner owner) -> false
      | Some _ | None -> (
          match Hashtbl.find_opt state.record_owners key with
          | Some record_owner -> String.equal record_owner owner
          | None -> true))
  | File_lock file ->
      let state = file_state t file in
      (match state.file_owner with
      | Some file_owner -> String.equal file_owner owner
      | None -> true)
      && not (other_record_owners state ~owner)

let note_granted t ~owner resource =
  let held =
    match Hashtbl.find_opt t.owner_index owner with
    | Some held -> held
    | None ->
        let held = Hashtbl.create 8 in
        Hashtbl.replace t.owner_index owner held;
        held
  in
  Hashtbl.replace held resource ()

let grant t ~owner resource =
  match resource with
  | Record_lock { file; key } ->
      let state = file_state t file in
      (* A file-lock holder's record access is already covered. *)
      if not (Hashtbl.mem state.record_owners key) then begin
        Hashtbl.replace state.record_owners key owner;
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
      match Hashtbl.find_opt t.wait_queues file with
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
          if Queue.is_empty queue then Hashtbl.remove t.wait_queues file)
    files

let enqueue_waiter t waiter =
  let file = file_of_resource waiter.resource in
  let queue =
    match Hashtbl.find_opt t.wait_queues file with
    | Some queue -> queue
    | None ->
        let queue = Queue.create () in
        Hashtbl.replace t.wait_queues file queue;
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
  (match Hashtbl.find_opt t.owner_index owner with
  | None -> ()
  | Some held ->
      Hashtbl.remove t.owner_index owner;
      let touched = Hashtbl.create 8 in
      Hashtbl.iter
        (fun resource () ->
          let file = file_of_resource resource in
          Hashtbl.replace touched file ();
          match resource with
          | File_lock _ -> (
              let state = file_state t file in
              match state.file_owner with
              | Some file_owner when String.equal file_owner owner ->
                  state.file_owner <- None
              | Some _ | None -> ())
          | Record_lock { key; _ } -> (
              let state = file_state t file in
              match Hashtbl.find_opt state.record_owners key with
              | Some record_owner when String.equal record_owner owner ->
                  Hashtbl.remove state.record_owners key
              | Some _ | None -> ()))
        held;
      wake_grantable t (Hashtbl.fold (fun file () acc -> file :: acc) touched []));
  Metrics.incr (Lazy.force t.c_release_all)

let holder t resource =
  match resource with
  | File_lock file -> (
      match Hashtbl.find_opt t.files file with
      | Some state -> state.file_owner
      | None -> None)
  | Record_lock { file; key } -> (
      match Hashtbl.find_opt t.files file with
      | Some state -> (
          match Hashtbl.find_opt state.record_owners key with
          | Some _ as direct -> direct
          | None -> state.file_owner)
      | None -> None)

let holds t ~owner resource =
  match holder t resource with
  | Some h -> String.equal h owner
  | None -> false

let locks_of t ~owner =
  match Hashtbl.find_opt t.owner_index owner with
  | None -> []
  | Some held -> Hashtbl.fold (fun resource () acc -> resource :: acc) held []

let locked_count t =
  Hashtbl.fold
    (fun _ state acc ->
      acc
      + (match state.file_owner with Some _ -> 1 | None -> 0)
      + Hashtbl.length state.record_owners)
    t.files 0

let waiting_count t = t.waiting

let reset t =
  Hashtbl.reset t.files;
  Hashtbl.reset t.owner_index;
  Hashtbl.iter
    (fun _ queue ->
      Queue.iter
        (fun waiter ->
          if waiter.pending then begin
            waiter.pending <- false;
            match waiter.timer with Some h -> Engine.cancel h | None -> ()
          end)
        queue)
    t.wait_queues;
  Hashtbl.reset t.wait_queues;
  t.waiting <- 0
