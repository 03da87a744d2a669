(* Host-side spans around the benchmark's calls into each layer.

   Every run records its handful of spans (the cost is two clock reads and
   two GC counter reads each), because set-up and run time are read back
   from them; the traced run also writes them out. Spans stay in memory
   until the run ends. *)

type span = {
  name : string;
  parent : string option;
  start_s : float;  (** Host seconds since the run began. *)
  end_s : float;
  alloc_words : float;  (** Words allocated inside the span. *)
  major_gcs : int;  (** Major collections completed inside the span. *)
}

type t = {
  run_id : string;
  origin : float;
  mutable open_spans : string list;
  mutable finished : span list; (* newest first *)
}

let create ~run_id =
  { run_id; origin = Unix.gettimeofday (); open_spans = []; finished = [] }

let run_id t = t.run_id

let allocated_words () =
  let stat = Gc.quick_stat () in
  stat.Gc.minor_words +. stat.Gc.major_words -. stat.Gc.promoted_words

let span t name f =
  let parent = match t.open_spans with p :: _ -> Some p | [] -> None in
  let start_s = Unix.gettimeofday () -. t.origin in
  let words = allocated_words () in
  let gcs = (Gc.quick_stat ()).Gc.major_collections in
  t.open_spans <- name :: t.open_spans;
  let finish () =
    t.open_spans <- List.tl t.open_spans;
    t.finished <-
      {
        name;
        parent;
        start_s;
        end_s = Unix.gettimeofday () -. t.origin;
        alloc_words = allocated_words () -. words;
        major_gcs = (Gc.quick_stat ()).Gc.major_collections - gcs;
      }
      :: t.finished
  in
  Fun.protect ~finally:finish f

let spans t = List.rev t.finished

let duration span = span.end_s -. span.start_s

let find t name = List.find_opt (fun s -> s.name = name) t.finished

(* The named span's duration; [0.] if it did not run. *)
let seconds t name = match find t name with Some s -> duration s | None -> 0.

(* A span's duration minus the part its direct children cover. *)
let self_seconds spans span =
  List.fold_left
    (fun acc child ->
      if child.parent = Some span.name then acc -. duration child else acc)
    (duration span) spans
