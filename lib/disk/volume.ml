open Tandem_sim

exception Unavailable of string

type t = {
  engine : Engine.t;
  metrics : Metrics.t;
  name : string;
  mirror0 : Drive.t;
  mirror1 : Drive.t;
  cache : Cache.t option;
  mutable controller_a_up : bool;
  mutable controller_b_up : bool;
  mutable reads : int;
  mutable writes : int;
  mutable forced : int;
  mutable reviving : bool;
  (* Pre-resolved handles for the per-I/O fast path. *)
  c_reads : Metrics.counter;
  c_writes : Metrics.counter;
  c_forced_writes : Metrics.counter;
  c_cache_hits : Metrics.counter;
  c_cache_misses : Metrics.counter;
  c_cache_evict_writes : Metrics.counter;
}

let create ?(cache_blocks = 0) engine ~metrics ~name ~access_time =
  {
    engine;
    metrics;
    name;
    mirror0 = Drive.create engine ~name:(name ^ "-M0") ~access_time;
    mirror1 = Drive.create engine ~name:(name ^ "-M1") ~access_time;
    cache =
      (if cache_blocks > 0 then Some (Cache.create ~capacity:cache_blocks)
       else None);
    controller_a_up = true;
    controller_b_up = true;
    reads = 0;
    writes = 0;
    forced = 0;
    reviving = false;
    c_reads = Metrics.counter metrics "disk.reads";
    c_writes = Metrics.counter metrics "disk.writes";
    c_forced_writes = Metrics.counter metrics "disk.forced_writes";
    c_cache_hits = Metrics.counter metrics "disk.cache_hits";
    c_cache_misses = Metrics.counter metrics "disk.cache_misses";
    c_cache_evict_writes = Metrics.counter metrics "disk.cache_evict_writes";
  }

let engine t = t.engine

let metrics t = t.metrics

let name t = t.name

let controllers_up t =
  (if t.controller_a_up then 1 else 0) + if t.controller_b_up then 1 else 0

let up_drives t =
  List.filter Drive.is_up [ t.mirror0; t.mirror1 ]

let drives_up t = List.length (up_drives t)

let available t = controllers_up t > 0 && drives_up t > 0

let check_available t =
  if not (available t) then begin
    Metrics.incr (Metrics.counter t.metrics "disk.unavailable_ios");
    raise (Unavailable t.name)
  end

let read_io t =
  check_available t;
  t.reads <- t.reads + 1;
  Metrics.incr t.c_reads;
  let drive =
    match up_drives t with
    | [ only ] -> only
    | [ a; b ] -> if Drive.busy_until a <= Drive.busy_until b then a else b
    | _ -> assert false
  in
  Drive.io drive

let write_mirrors t =
  check_available t;
  (* Both mirrors are written in parallel: issue the accesses and wait for
     the later completion. Each Drive.io sleeps individually, so issue them
     from throwaway fibers and wait for the slower one. *)
  match up_drives t with
  | [ only ] -> Drive.io only
  | [ a; b ] ->
      let remaining = ref 2 in
      let finish = ref (fun () -> ()) in
      List.iter
        (fun drive ->
          ignore
            (Fiber.spawn ~engine:t.engine (fun () ->
                 Drive.io drive;
                 decr remaining;
                 if !remaining = 0 then !finish ())))
        [ a; b ];
      if !remaining > 0 then
        Fiber.suspend (fun resume -> finish := fun () -> resume (Ok ()))
  | _ -> assert false

let write_io t =
  t.writes <- t.writes + 1;
  Metrics.incr t.c_writes;
  write_mirrors t

let force_io t =
  (* Forcing flushes the controller cache's write-behind backlog: the dirty
     blocks ride out with (and are covered by) this one physical write, the
     same amortization a sequential log write gives group commit. *)
  (match t.cache with
  | Some cache ->
      let dirty = Cache.dirty_blocks cache in
      if dirty <> [] then begin
        Metrics.add
          (Metrics.counter t.metrics "disk.cache_write_behind")
          (List.length dirty);
        List.iter (Cache.clean cache) dirty
      end
  | None -> ());
  t.writes <- t.writes + 1;
  t.forced <- t.forced + 1;
  Metrics.incr t.c_writes;
  Metrics.incr t.c_forced_writes;
  write_mirrors t

(* Block-addressed I/O through the controller cache. Without a cache these
   are exactly [read_io]/[write_io]; with one, a read hit costs no disc
   access, a write is absorbed (write-behind: the block goes dirty and is
   flushed by the next {!force_io}), and evicting a dirty block pays its
   deferred physical write on the spot. *)
let read_block t block =
  match t.cache with
  | None -> read_io t
  | Some cache -> (
      check_available t;
      match Cache.touch cache block with
      | `Hit -> Metrics.incr t.c_cache_hits
      | `Miss evicted ->
          Metrics.incr t.c_cache_misses;
          (match evicted with
          | Some { Cache.dirty = true; _ } ->
              Metrics.incr t.c_cache_evict_writes;
              write_io t
          | Some _ | None -> ());
          read_io t)

let write_block t block =
  match t.cache with
  | None -> write_io t
  | Some cache ->
      check_available t;
      (match Cache.touch cache block with
      | `Hit -> Metrics.incr t.c_cache_hits
      | `Miss evicted -> (
          Metrics.incr t.c_cache_misses;
          (* A whole-block write needs no physical read first. *)
          match evicted with
          | Some { Cache.dirty = true; _ } ->
              Metrics.incr t.c_cache_evict_writes;
              write_io t
          | Some _ | None -> ()));
      Cache.mark_dirty cache block

let drive t which = match which with `M0 -> t.mirror0 | `M1 -> t.mirror1

let fail_drive t which =
  Drive.mark_down (drive t which);
  Metrics.incr (Metrics.counter t.metrics "disk.drive_failures")

let revive_drive t which ~blocks =
  let target = drive t which in
  if Drive.is_up target then ()
  else if drives_up t = 0 then raise (Unavailable t.name)
  else if t.reviving then invalid_arg "Volume.revive_drive: revive in progress"
  else begin
    t.reviving <- true;
    ignore
      (Fiber.spawn ~engine:t.engine (fun () ->
           (* Copy pass: read each block from the survivor. The survivor's
              queue serializes this behind (and interleaved with) normal
              service, which is how REVIVE degrades but does not stop
              processing. *)
           let survivor =
             match up_drives t with d :: _ -> d | [] -> assert false
           in
           for _ = 1 to blocks do
             if Drive.is_up survivor then Drive.io survivor
           done;
           Drive.mark_up target;
           t.reviving <- false;
           Metrics.incr (Metrics.counter t.metrics "disk.revives")))
  end

let fail_controller t which =
  (match which with
  | `A -> t.controller_a_up <- false
  | `B -> t.controller_b_up <- false);
  Metrics.incr (Metrics.counter t.metrics "disk.controller_failures")

let restore_controller t which =
  match which with
  | `A -> t.controller_a_up <- true
  | `B -> t.controller_b_up <- true

let controllers_up_count t = controllers_up t

let mirrors_converged t = drives_up t = 2 && not t.reviving

let reads t = t.reads

let writes t = t.writes

let forced_writes t = t.forced
