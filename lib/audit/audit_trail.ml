open Tandem_disk
module Transid = Tandem_sim.Transid

(* A closed or current audit file, kept as the bytes a disc file would hold.
   Record [i] is encoded at [data.[offsets.(i)]] and has sequence number
   [first_seq + i]. Appends only ever go to the current (newest) file, so
   each file holds one contiguous ascending run of sequence numbers
   ([first_seq] is meaningless while the file is empty and is reset by the
   first append). Non-empty files' runs are disjoint and descend with age,
   which makes [records_from] a per-file index computation instead of a
   full-trail filter. [pins] counts the unsettled transactions whose oldest
   surviving record the file holds: a pinned file is never purged by the
   trail itself.

   A record's encoding is eight fields, each a varint or a varint length
   followed by that many bytes:
   - [back]: sequence delta to the previous record of the same transaction
     (0 for its first record) — the per-transaction chain;
   - the transid's home, cpu and seq, three varints;
   - the interned (volume, file) name id;
   - the key;
   - before and after: 0 for [None], [1 + length] then the bytes for
     [Some]. *)
type audit_file = {
  file_number : int;
  mutable first_seq : int;
  mutable data : Bytes.t;
  mutable used : int; (* bytes of [data] in use *)
  mutable offsets : int array;
  mutable length : int; (* records in the file *)
  mutable pins : int;
}

(* One transaction's index entry. [live.(0 .. count - 1)] holds its records
   as appended, so backout of a running transaction decodes nothing; once
   the transaction is settled [live] is empty and reads walk the [back]
   chain from [last] instead. A present entry always has [count > 0], so an
   empty [live] means settled, and a settled entry stays settled. *)
type tx_entry = {
  mutable last : int; (* sequence of the newest record *)
  mutable count : int;
  mutable live : Audit_record.t array;
}

type t = {
  volume : Volume.t;
  daemon : Force_daemon.t;
  trail_name : string;
  records_per_file : int;
  mutable files : audit_file list; (* newest first *)
  tx_index : (string, tx_entry) Hashtbl.t; (* by [Transid.to_string] *)
  name_ids : (string * string, int) Hashtbl.t; (* (volume, file) -> id *)
  mutable names : (string * string) array; (* id -> (volume, file) *)
  mutable last_name : Audit_record.image; (* the image [last_id] names *)
  mutable last_id : int;
  mutable next_seq : int;
  mutable forced_hwm : int; (* highest sequence on disc *)
  mutable floor : int;
      (* lowest sequence an archive's ROLLFORWARD may read; [max_int] until
         an archive is taken, and never raised *)
  mutable crash_epoch : int;
      (* bumped by [crash]: a force that was in flight across a crash must
         not advance the high-water mark — the records it meant to cover
         were dropped with the volatile tail. *)
}

(* A file's buffers start at [bytes] and [records]: small for the first
   file, and for each later one the size of the last file closed, so they
   need not double while the file fills. *)
let fresh_file ?(bytes = 256) ?(records = 16) file_number =
  {
    file_number;
    first_seq = 0;
    data = Bytes.create bytes;
    used = 0;
    offsets = Array.make records 0;
    length = 0;
    pins = 0;
  }

let create volume ~name ?(records_per_file = 512) ?(force_window = 0) () =
  if records_per_file < 1 then
    invalid_arg "Audit_trail.create: records_per_file must be positive";
  {
    volume;
    daemon = Force_daemon.create ~window:force_window volume;
    trail_name = name;
    records_per_file;
    files = [ fresh_file 0 ];
    tx_index = Hashtbl.create 64;
    name_ids = Hashtbl.create 8;
    names = [||];
    last_name = Audit_record.commit_marker_image;
    last_id = -1;
    next_seq = 0;
    forced_hwm = -1;
    floor = max_int;
    crash_epoch = 0;
  }

let current_file t =
  match t.files with
  | file :: _ -> file
  | [] -> assert false

(* ------------------------------------------------------------------ *)
(* Encoding *)

(* Room for [extra] more bytes. Each append reserves its whole record once,
   so the writers below store without checks. *)
let reserve file extra =
  let needed = file.used + extra in
  if needed > Bytes.length file.data then begin
    let data = Bytes.create (Int.max needed (2 * Bytes.length file.data)) in
    Bytes.blit file.data 0 data 0 file.used;
    file.data <- data
  end

let max_varint_bytes = 9 (* 63-bit ints, 7 bits a byte *)

let rec put_varint file n =
  if n < 0x80 then begin
    Bytes.unsafe_set file.data file.used (Char.unsafe_chr n);
    file.used <- file.used + 1
  end
  else begin
    Bytes.unsafe_set file.data file.used
      (Char.unsafe_chr (n land 0x7f lor 0x80));
    file.used <- file.used + 1;
    put_varint file (n lsr 7)
  end

let put_bytes file s =
  let length = String.length s in
  Bytes.unsafe_blit_string s 0 file.data file.used length;
  file.used <- file.used + length

let put_string file s =
  put_varint file (String.length s);
  put_bytes file s

let put_side file = function
  | None -> put_varint file 0
  | Some s ->
      put_varint file (String.length s + 1);
      put_bytes file s

let side_length = function None -> 0 | Some s -> String.length s

(* A cursor over one file's bytes. *)
type reader = { bytes : Bytes.t; mutable pos : int }

let get_varint r =
  let rec get shift acc =
    let byte = Char.code (Bytes.get r.bytes r.pos) in
    r.pos <- r.pos + 1;
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte < 0x80 then acc else get (shift + 7) acc
  in
  get 0 0

let get_bytes r length =
  let s = Bytes.sub_string r.bytes r.pos length in
  r.pos <- r.pos + length;
  s

let get_string r = get_bytes r (get_varint r)

let get_side r =
  match get_varint r with 0 -> None | n -> Some (get_bytes r (n - 1))

let get_transid r =
  let home = get_varint r in
  let cpu = get_varint r in
  let seq = get_varint r in
  Transid.make ~home ~cpu ~seq

let reader file i = { bytes = file.data; pos = file.offsets.(i) }

(* The back-link and transid of record [i]: what index maintenance needs. *)
let header file i =
  let r = reader file i in
  let back = get_varint r in
  (back, get_transid r)

(* Record [i] and its back-link. *)
let decode_linked t file i =
  let r = reader file i in
  let back = get_varint r in
  let transid = get_transid r in
  let volume, file_name = t.names.(get_varint r) in
  let key = get_string r in
  let before = get_side r in
  let after = get_side r in
  ( back,
    {
      Audit_record.sequence = file.first_seq + i;
      transid;
      image = { volume; file = file_name; key; before; after };
    } )

let decode t file i = snd (decode_linked t file i)

(* Records [lo .. hi] of one file, ascending, consed onto [acc]. *)
let decode_range t file ~lo ~hi acc =
  let rec collect i acc =
    if i < lo then acc else collect (i - 1) (decode t file i :: acc)
  in
  collect hi acc

(* Intern (volume, file). Consecutive appends nearly always name the same
   pair, so the previous image's strings are checked first, physically. *)
let name_id t (image : Audit_record.image) =
  if
    t.last_id >= 0
    && image.volume == t.last_name.volume
    && image.file == t.last_name.file
  then t.last_id
  else begin
    let pair = (image.volume, image.file) in
    let id =
      match Hashtbl.find_opt t.name_ids pair with
      | Some id -> id
      | None ->
          let id = Array.length t.names in
          Hashtbl.replace t.name_ids pair id;
          t.names <- Array.append t.names [| pair |];
          id
    in
    t.last_name <- image;
    t.last_id <- id;
    id
  end

(* [array] doubled, its first [n] slots kept. *)
let grow array n filler =
  let grown = Array.make (2 * n) filler in
  Array.blit array 0 grown 0 n;
  grown

(* The file holding [sequence], which must be present. *)
let file_holding t sequence =
  let rec find = function
    | [] -> assert false
    | file :: older ->
        if file.length > 0 && file.first_seq <= sequence then file
        else find older
  in
  find t.files

(* The back-link of record [i], read in place. *)
let back_link file i =
  let rec get pos shift acc =
    let byte = Char.code (Bytes.get file.data pos) in
    let acc = acc lor ((byte land 0x7f) lsl shift) in
    if byte < 0x80 then acc else get (pos + 1) (shift + 7) acc
  in
  get file.offsets.(i) 0 0

(* How many of [entry]'s records lie at or above [boundary]: its chain
   walked back from its newest record, in the files of [t]. *)
let records_above t entry boundary =
  let rec walk files sequence remaining kept =
    if remaining = 0 || sequence < boundary then kept
    else
      match files with
      | [] -> assert false
      | file :: older ->
          if file.length = 0 || file.first_seq > sequence then
            walk older sequence remaining kept
          else
            walk files
              (sequence - back_link file (sequence - file.first_seq))
              (remaining - 1) (kept + 1)
  in
  walk t.files entry.last entry.count 0

(* Drop the oldest files while [purgeable] holds of each, and take their
   records out of the index; returns how many of them held records. The
   dropped files are strictly the oldest: every record they hold lies
   below [boundary] and every kept record at or above it, so per
   transaction they are the oldest end of its chain. An entry whose newest
   record is dropped goes; any other keeps the count of its records above
   the boundary, found in its live array or along its chain, and drops its
   live array's front. An unsettled transaction that keeps records pins the
   file of its new oldest one (its old pin went with the dropped files). *)
let drop_oldest t purgeable =
  let rec split dropped = function
    | file :: newer when purgeable file -> split (file :: dropped) newer
    | kept -> (dropped, kept)
  in
  let dropped, kept = split [] (List.rev t.files) in
  t.files <- (if kept = [] then [ fresh_file 0 ] else List.rev kept);
  let boundary =
    List.fold_left
      (fun boundary file ->
        if file.length = 0 then boundary
        else Int.max boundary (file.first_seq + file.length))
      min_int dropped
  in
  if boundary > min_int then
    Hashtbl.filter_map_inplace
      (fun _ entry ->
        if entry.last < boundary then None
        else begin
          if Array.length entry.live = 0 then
            entry.count <- records_above t entry boundary
          else begin
            let purged = ref 0 in
            while entry.live.(!purged).sequence < boundary do
              incr purged
            done;
            if !purged > 0 then begin
              entry.count <- entry.count - !purged;
              entry.live <- Array.sub entry.live !purged entry.count;
              let file = file_holding t entry.live.(0).sequence in
              file.pins <- file.pins + 1
            end
          end;
          Some entry
        end)
      t.tx_index;
  List.length (List.filter (fun file -> file.length > 0) dropped)

(* What the trail drops by itself once a file closes: closed files that no
   reader can reach — no unsettled transaction starts in them (backout and
   END read those), every record is forced (a crash truncates only above
   [forced_hwm]) and below the floor (ROLLFORWARD reads from there). *)
let unreadable t file =
  file != current_file t
  && file.pins = 0
  && (file.length = 0
     ||
     let last = file.first_seq + file.length - 1 in
     last <= t.forced_hwm && last < t.floor)

(* ------------------------------------------------------------------ *)

let append t ~transid image =
  let sequence = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let file = current_file t in
  let record = { Audit_record.sequence; transid; image } in
  let key = Transid.to_string transid in
  let back =
    match Hashtbl.find_opt t.tx_index key with
    | Some entry ->
        let back = sequence - entry.last in
        let n = entry.count in
        if Array.length entry.live > 0 then begin
          if n = Array.length entry.live then
            entry.live <- grow entry.live n record;
          entry.live.(n) <- record
        end;
        entry.last <- sequence;
        entry.count <- n + 1;
        back
    | None ->
        Hashtbl.replace t.tx_index key
          { last = sequence; count = 1; live = Array.make 8 record };
        file.pins <- file.pins + 1;
        0
  in
  if file.length = 0 then file.first_seq <- sequence;
  if file.length = Array.length file.offsets then
    file.offsets <- grow file.offsets file.length 0;
  file.offsets.(file.length) <- file.used;
  file.length <- file.length + 1;
  reserve file
    ((8 * max_varint_bytes) + String.length image.key
    + side_length image.before + side_length image.after);
  put_varint file back;
  put_varint file transid.home;
  put_varint file transid.cpu;
  put_varint file transid.seq;
  put_varint file (name_id t image);
  put_string file image.key;
  put_side file image.before;
  put_side file image.after;
  if file.length >= t.records_per_file then begin
    (* Closed for good: shed the slack only when it is a quarter or more of
       what the file holds. The next file gets an eighth more bytes than
       this one holds, so files of like records fill without a copy. *)
    if 4 * (Bytes.length file.data - file.used) >= file.used then
      file.data <- Bytes.sub file.data 0 file.used;
    if 4 * (Array.length file.offsets - file.length) >= file.length then
      file.offsets <- Array.sub file.offsets 0 file.length;
    t.files <-
      fresh_file
        ~bytes:(file.used + (file.used / 8))
        ~records:file.length (file.file_number + 1)
      :: t.files;
    ignore (drop_oldest t (unreadable t))
  end;
  sequence

let settle t ~transid =
  match Hashtbl.find_opt t.tx_index (Transid.to_string transid) with
  | Some entry when Array.length entry.live > 0 ->
      let file = file_holding t entry.live.(0).sequence in
      file.pins <- file.pins - 1;
      entry.live <- [||]
  | Some _ | None -> ()

let force t =
  if t.forced_hwm < t.next_seq - 1 then begin
    (* Group commit: concurrent forcers share one physical write. *)
    let epoch = t.crash_epoch in
    let target = t.next_seq - 1 in
    Force_daemon.force t.daemon;
    if t.crash_epoch = epoch then t.forced_hwm <- Int.max t.forced_hwm target
  end

let forced_up_to t = t.forced_hwm

let next_sequence t = t.next_seq

(* A settled transaction's records: follow the back-links from its newest
   record, [count] steps. Sequences descend along the chain, so the file
   cursor only moves towards older files; purged records are the chain's
   oldest, so the count stops short of them. *)
let decode_chain t entry =
  let rec walk files sequence remaining acc =
    if remaining = 0 then acc
    else
      match files with
      | [] -> assert false
      | file :: older ->
          if file.length = 0 || file.first_seq > sequence then
            walk older sequence remaining acc
          else begin
            let back, record = decode_linked t file (sequence - file.first_seq) in
            walk files (sequence - back) (remaining - 1) (record :: acc)
          end
  in
  walk t.files entry.last entry.count []

let records_for t ~transid =
  match Hashtbl.find_opt t.tx_index (Transid.to_string transid) with
  | None -> []
  | Some ({ live = [||]; _ } as entry) -> decode_chain t entry
  | Some { live; count; _ } ->
      let rec collect i acc =
        if i < 0 then acc else collect (i - 1) (live.(i) :: acc)
      in
      collect (count - 1) []

let record_count_for t ~transid =
  match Hashtbl.find_opt t.tx_index (Transid.to_string transid) with
  | Some entry -> entry.count
  | None -> 0

(* Every record with sequence in [lo_seq .. hi_seq], ascending: files are
   folded newest first and each one's range is consed in front. Each file's
   run is contiguous, so the matching window is an index range, not a
   filter. *)
let records_between t ~lo_seq ~hi_seq =
  List.fold_left
    (fun acc file ->
      if file.length = 0 then acc
      else
        let lo = Int.max file.first_seq lo_seq - file.first_seq in
        let hi =
          Int.min (file.first_seq + file.length - 1) hi_seq - file.first_seq
        in
        decode_range t file ~lo ~hi acc)
    [] t.files

let records_from t ~sequence =
  records_between t ~lo_seq:sequence ~hi_seq:t.forced_hwm

let unforced_records t =
  (* The volatile tail: appended but not yet on oxide. A crash loses these,
     so an archive taken "now" must carry their images as loser candidates —
     the writes they describe are visible in a fuzzy dump, but the records
     themselves will not survive to drive the undo pass. *)
  records_between t ~lo_seq:(t.forced_hwm + 1) ~hi_seq:max_int

(* Remove one record from the TAIL of its transaction's chain — valid
   whenever records are removed newest first (the crash path). The record
   that empties a chain is its oldest, so an unsettled transaction's pin
   is on [file]. *)
let unindex_newest t file i =
  let back, transid = header file i in
  let key = Transid.to_string transid in
  match Hashtbl.find_opt t.tx_index key with
  | None -> ()
  | Some entry ->
      entry.count <- entry.count - 1;
      if entry.count = 0 then begin
        Hashtbl.remove t.tx_index key;
        if Array.length entry.live > 0 then file.pins <- file.pins - 1
      end
      else begin
        entry.last <- entry.last - back;
        (* Drop the popped record's reference; slot 0 is still in use. *)
        if Array.length entry.live > 0 then
          entry.live.(entry.count) <- entry.live.(0)
      end

let crash t =
  (* Drop every record above the forced high-water mark. The unforced tail
     is, by construction, the newest suffix of each file — truncate rather
     than filter, and peel the same records off the transaction chains,
     newest first (files are listed newest first). *)
  List.iter
    (fun file ->
      if file.length > 0 then begin
        let keep =
          if file.first_seq > t.forced_hwm then 0
          else Int.min file.length (t.forced_hwm - file.first_seq + 1)
        in
        if keep < file.length then begin
          for i = file.length - 1 downto keep do
            unindex_newest t file i
          done;
          file.used <- file.offsets.(keep);
          file.length <- keep
        end
      end)
    t.files;
  t.next_seq <- t.forced_hwm + 1;
  t.crash_epoch <- t.crash_epoch + 1

let file_count t = List.length t.files

let purge_files_before t ~sequence =
  drop_oldest t (fun file ->
      file.length = 0 || file.first_seq + file.length - 1 < sequence)

(* An unsettled transaction's oldest record is the first of its live
   array. Called once per archive, so one pass over the index is cheap. *)
let retain_from t ~sequence =
  t.floor <-
    Hashtbl.fold
      (fun _ entry floor ->
        if Array.length entry.live > 0 then
          Int.min floor entry.live.(0).sequence
        else floor)
      t.tx_index
      (Int.min t.floor sequence)

(* Commit markers are skipped: every fast-path commit writes the same
   ($TMF, $COMMIT, "") sentinel, so an edge through it would chain every
   fast-path transaction into one component and erase the parallelism the
   edges exist to expose. Markers carry no data image — they order against
   nothing. *)
let dependency_edges t =
  let last_writer : (string * string * string, Transid.t) Hashtbl.t =
    Hashtbl.create 256
  in
  let edges = ref [] in
  List.iter
    (fun { Audit_record.transid; image; _ } ->
      if not (Audit_record.is_commit_marker image) then begin
        let key = Audit_record.(image.volume, image.file, image.key) in
        (match Hashtbl.find_opt last_writer key with
        | Some previous when not (Transid.equal previous transid) ->
            edges := (previous, transid) :: !edges
        | Some _ | None -> ());
        Hashtbl.replace last_writer key transid
      end)
    (records_from t ~sequence:0);
  List.rev !edges
