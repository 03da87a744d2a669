open Tandem_sim

type link = {
  node_a : Ids.node_id;
  node_b : Ids.node_id;
  nominal_latency : Sim_time.span;
  mutable latency : Sim_time.span;
  mutable up : bool;
}

(* One outbound boxcar lane per (src node, dst node) pair. Messages routed
   while a lane's boxcar is open ride in it and share the departure scheduled
   when the boxcar opened; [last_arrival] serializes consecutive boxcars so
   a large boxcar's tail can never overtake the next boxcar's head. *)
type lane = {
  pending : Message.t Queue.t;
  mutable boxcar_open : bool;
  mutable latency : Sim_time.span;
  mutable last_arrival : Sim_time.t;
}

(* A cached route: [Uncached] until first asked, reset when a link
   changes. *)
type cached_route = Uncached | Route of (int * Sim_time.span) option

type t = {
  engine : Engine.t;
  config : Hw_config.t;
  trace : Trace.t;
  metrics : Metrics.t;
  spans : Span.t;
  workload_rng : Rng.t;
  mutable links : link list;
  (* State by node id, [node_table.(id)], [routes.(src).(dst)],
     [lanes.(src).(dst)] and [node_msg_counters.(dst)]: square in every id
     from 0 to the largest one added or routed, grown by [cover]. *)
  mutable node_table : Node.t option array;
  mutable routes : cached_route array array;
  mutable lanes : lane option array array;
  mutable node_msg_counters : Metrics.counter option array;
  (* Pre-resolved handles for the per-message fast path: one registry
     lookup at net creation instead of a string hash per send. *)
  c_msgs_sent : Metrics.counter;
  c_hops : Metrics.counter;
  c_retransmits : Metrics.counter;
  c_boxcars : Metrics.counter;
  boxcar_occupancy : Metrics.sample Lazy.t; (* registered at first boxcar *)
  rpc_calls : Metrics.counter_family;
  mutable next_corr : int;
}

let create ?(seed = 42) ?(config = Hw_config.default) () =
  let engine = Engine.create ~seed () in
  let metrics = Metrics.create () in
  {
    engine;
    config;
    trace = Trace.create engine;
    metrics;
    spans = Span.create engine;
    workload_rng = Rng.split (Engine.rng engine);
    node_table = [||];
    links = [];
    routes = [||];
    lanes = [||];
    node_msg_counters = [||];
    c_msgs_sent = Metrics.counter metrics "net.msgs_sent";
    c_hops = Metrics.counter metrics "net.hops";
    c_retransmits = Metrics.counter metrics "net.retransmits";
    c_boxcars = Metrics.counter metrics "net.boxcars";
    boxcar_occupancy = lazy (Metrics.sample metrics "net.boxcar_occupancy");
    rpc_calls = Metrics.counter_family metrics ~name:"rpc.calls" ~label:"name";
    next_corr = 0;
  }

let engine t = t.engine

let config t = t.config

let trace t = t.trace

let metrics t = t.metrics

let rpc_calls_family t = t.rpc_calls

let spans t = t.spans

let invalidate_routes t =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) Uncached) t.routes

(* Grow the per-id arrays to cover node id [id] (at least 0). *)
let cover t id =
  let n = Array.length t.lanes in
  if id >= n then begin
    let n' = max (id + 1) (2 * n) in
    let widen row fill =
      let wide = Array.make n' fill in
      Array.blit row 0 wide 0 (Array.length row);
      wide
    in
    let widen_rows rows fill =
      Array.init n' (fun src ->
          widen (if src < n then rows.(src) else [||]) fill)
    in
    t.routes <- widen_rows t.routes Uncached;
    t.lanes <- widen_rows t.lanes None;
    t.node_msg_counters <- Tbl.grow t.node_msg_counters id;
    t.node_table <- Tbl.grow t.node_table id
  end

let add_node t ~id ~cpus =
  if id < 0 then invalid_arg "Net.add_node: negative id";
  cover t id;
  if Option.is_some t.node_table.(id) then
    invalid_arg "Net.add_node: duplicate id";
  let node =
    Node.create ~engine:t.engine ~trace:t.trace ~metrics:t.metrics ~id ~cpus
  in
  t.node_table.(id) <- Some node;
  invalidate_routes t;
  node

let find_node t id =
  if id < 0 || id >= Array.length t.node_table then None
  else t.node_table.(id)

let node t id =
  match find_node t id with Some node -> node | None -> raise Not_found

let nodes t =
  Array.fold_right
    (fun slot acc -> match slot with Some node -> node :: acc | None -> acc)
    t.node_table []

let add_link ?latency t a b =
  let latency = Option.value latency ~default:Hw_config.network_latency in
  if a = b then invalid_arg "Net.add_link: self link";
  if a < 0 || b < 0 then invalid_arg "Net.add_link: negative node id";
  t.links <-
    { node_a = a; node_b = b; nominal_latency = latency; latency; up = true }
    :: t.links;
  invalidate_routes t

let joins link a b =
  (link.node_a = a && link.node_b = b) || (link.node_a = b && link.node_b = a)

let set_link t a b up =
  List.iter (fun link -> if joins link a b then link.up <- up) t.links;
  invalidate_routes t;
  Trace.emit t.trace "net" "link %d-%d %s" a b (if up then "restored" else "FAILED")

let fail_link t a b = set_link t a b false

let restore_link t a b = set_link t a b true

let all_links_up t = List.for_all (fun link -> link.up) t.links

let degrade_link t a b ~factor =
  if factor < 1 then invalid_arg "Net.degrade_link: factor < 1";
  List.iter
    (fun link ->
      if joins link a b then link.latency <- link.nominal_latency * factor)
    t.links;
  invalidate_routes t;
  Metrics.incr (Metrics.counter t.metrics "net.link_degradations");
  Trace.emit t.trace "net" "link %d-%d latency DEGRADED x%d" a b factor

let repair_link_latency t a b =
  List.iter
    (fun link -> if joins link a b then link.latency <- link.nominal_latency)
    t.links;
  invalidate_routes t;
  Trace.emit t.trace "net" "link %d-%d latency repaired" a b

(* One route-cache invalidation and one summary trace line for the whole
   cut, instead of one of each per node pair. *)
let partition t group_a group_b =
  let crosses link a b =
    (link.node_a = a && link.node_b = b) || (link.node_a = b && link.node_b = a)
  in
  let failed = ref 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then
            List.iter
              (fun link ->
                if crosses link a b then begin
                  if link.up then incr failed;
                  link.up <- false
                end)
              t.links)
        group_b)
    group_a;
  invalidate_routes t;
  let group g = String.concat "," (List.map string_of_int g) in
  Trace.emit t.trace "net" "partition {%s} | {%s}: %d links FAILED"
    (group group_a) (group group_b) !failed

let heal_partition t =
  List.iter (fun link -> link.up <- true) t.links;
  invalidate_routes t;
  Trace.emit t.trace "net" "all links restored"

(* Dijkstra over up links, weighted by latency; ties by hop count. The
   adjacency table is built once per computation (the link list is only
   walked once, not once per visited node). The frontier is an
   association list of reached, unsettled nodes, scanned for its minimum:
   it never holds more than the node count, and [route] caches every
   result until a link changes. *)
let compute_route t src dst =
  if src = dst then Some (0, 0)
  else begin
    let adjacency : (Ids.node_id, (Ids.node_id * Sim_time.span) list) Hashtbl.t
        =
      Hashtbl.create 16
    in
    let add_edge a b latency =
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt adjacency a)
      in
      Hashtbl.replace adjacency a ((b, latency) :: existing)
    in
    List.iter
      (fun link ->
        if link.up then begin
          add_edge link.node_a link.node_b link.latency;
          add_edge link.node_b link.node_a link.latency
        end)
      t.links;
    (* Each entry is a node and its best (latency, hops) so far. *)
    let frontier = ref [ (src, (0, 0)) ] in
    let settled = Hashtbl.create 16 in
    let rec next_settled () =
      match !frontier with
      | [] -> None
      | first :: rest ->
          let n, (d, hops) =
            List.fold_left
              (fun (_, best as closest) (_, cost as entry) ->
                if compare cost best < 0 then entry else closest)
              first rest
          in
          frontier := List.remove_assoc n !frontier;
          Hashtbl.replace settled n ();
          if n = dst then Some (hops, d)
          else begin
            List.iter
              (fun (m, latency) ->
                if not (Hashtbl.mem settled m) then begin
                  let candidate = (d + latency, hops + 1) in
                  match List.assoc_opt m !frontier with
                  | Some best when compare best candidate <= 0 -> ()
                  | Some _ | None ->
                      frontier :=
                        (m, candidate) :: List.remove_assoc m !frontier
                end)
              (Option.value ~default:[] (Hashtbl.find_opt adjacency n));
            next_settled ()
          end
    in
    next_settled ()
  end

(* No link has a negative end, so a negative id is reachable only from
   itself. *)
let route t src dst =
  if src = dst then Some (0, 0)
  else if src < 0 || dst < 0 then None
  else begin
    cover t (max src dst);
    match t.routes.(src).(dst) with
    | Route cached -> cached
    | Uncached ->
        let result = compute_route t src dst in
        t.routes.(src).(dst) <- Route result;
        result
  end

let reachable t src dst = Option.is_some (route t src dst)

let deliver_at_destination t (message : Message.t) =
  match find_node t message.Message.dst.Ids.node with
  | None -> Metrics.incr (Metrics.counter t.metrics "net.msgs_dropped_no_node")
  | Some node -> (
      match Node.find_process node message.Message.dst with
      | Some process when Process.is_alive process ->
          Process.deliver process message
      | Some _ | None ->
          Metrics.incr (Metrics.counter t.metrics "os.msgs_dropped_dead"))

(* Per-destination counter handles are cached in the net state so the hot
   send path never re-renders the canonical labeled name. Both lookups
   below follow a [route] to the same ids, which covered them. *)
let node_msg_counter t dst_node =
  match t.node_msg_counters.(dst_node) with
  | Some counter -> counter
  | None ->
      let counter =
        Metrics.counter_with t.metrics "net.node_msgs"
          ~labels:[ ("dst", string_of_int dst_node) ]
      in
      t.node_msg_counters.(dst_node) <- Some counter;
      counter

let lane_for t src_node dst_node =
  match t.lanes.(src_node).(dst_node) with
  | Some lane -> lane
  | None ->
      let lane =
        {
          pending = Queue.create ();
          boxcar_open = false;
          latency = 0;
          last_arrival = Sim_time.zero;
        }
      in
      t.lanes.(src_node).(dst_node) <- Some lane;
      lane

(* Close the lane's boxcar: every message collected during the window shares
   one scheduled delivery at one link latency, plus the per-message marginal
   cost for each extra rider. [last_arrival] never moves backwards, so
   per-(src,dst) FIFO order survives a long boxcar being tailed by a short
   one: equal arrival instants resolve in scheduling order (engine events
   are seq-stable), and the earlier boxcar's delivery is always scheduled
   first. *)
let depart_boxcar t lane =
  lane.boxcar_open <- false;
  let batch = Queue.fold (fun acc m -> m :: acc) [] lane.pending |> List.rev in
  Queue.clear lane.pending;
  let occupancy = List.length batch in
  if occupancy > 0 then begin
    Metrics.incr t.c_boxcars;
    Metrics.observe (Lazy.force t.boxcar_occupancy) (float_of_int occupancy);
    let marginal = Hw_config.boxcar_marginal_cost in
    let arrival =
      Sim_time.add (Engine.now t.engine)
        (lane.latency + ((occupancy - 1) * marginal))
    in
    let arrival =
      if Sim_time.compare arrival lane.last_arrival < 0 then lane.last_arrival
      else arrival
    in
    lane.last_arrival <- arrival;
    Engine.post_at t.engine arrival (fun () ->
        List.iter (deliver_at_destination t) batch)
  end

let send t (message : Message.t) =
  let src = message.Message.src and dst = message.Message.dst in
  if src.Ids.node = dst.Ids.node then
    match find_node t src.Ids.node with
    | None -> invalid_arg "Net.send: unknown source node"
    | Some node -> Node.deliver_local node message
  else begin
    (* End-to-end protocol: try now; while unroutable, retransmit at the
       configured interval up to the attempt budget, then drop. Routable
       messages join the open boxcar for their (src,dst) lane — or open one
       and schedule its departure — so fan-out bursts to one node share a
       single delivery event. *)
    let rec attempt remaining =
      match route t src.Ids.node dst.Ids.node with
      | Some (hops, latency) ->
          Metrics.incr t.c_msgs_sent;
          Metrics.incr (node_msg_counter t dst.Ids.node);
          Metrics.add t.c_hops hops;
          let window = t.config.Hw_config.boxcar_window in
          if window <= 0 then begin
            (* Per-(src,dst) FIFO survives a mid-stream latency repair: a
               message routed after the repair may not overtake one still in
               flight from the degraded era, so arrivals are clamped to the
               lane's last scheduled arrival. *)
            let lane = lane_for t src.Ids.node dst.Ids.node in
            let arrival = Sim_time.add (Engine.now t.engine) latency in
            let arrival =
              if Sim_time.compare arrival lane.last_arrival < 0 then
                lane.last_arrival
              else arrival
            in
            lane.last_arrival <- arrival;
            Engine.post_at t.engine arrival (fun () ->
                deliver_at_destination t message)
          end
          else begin
            let lane = lane_for t src.Ids.node dst.Ids.node in
            Queue.add message lane.pending;
            if not lane.boxcar_open then begin
              lane.boxcar_open <- true;
              lane.latency <- latency;
              Engine.post_after t.engine window (fun () ->
                  depart_boxcar t lane)
            end
          end
      | None ->
          if remaining > 1 then begin
            Metrics.incr t.c_retransmits;
            Engine.post_after t.engine Hw_config.net_retransmit (fun () ->
                attempt (remaining - 1))
          end
          else begin
            Metrics.incr (Metrics.counter t.metrics "net.msgs_dropped_unroutable");
            Trace.emit t.trace "net" "gave up on %a: unroutable" Message.pp
              message
          end
    in
    attempt Hw_config.net_attempts
  end

let fresh_corr t =
  t.next_corr <- t.next_corr + 1;
  t.next_corr
