(* In-memory spans recorded around the benchmark's calls into the
   libraries.  Recording is off by default, so the untraced run pays one
   branch per call; a traced run keeps every span until [write]. *)

type t = {
  id : int;
  name : string;  (** "<layer>.<call>", e.g. "pipeline.evaluate" *)
  pass : int;  (** shared by every span of one pass or probe *)
  parent : int;  (** enclosing span id, -1 at the root *)
  start : float;
  stop : float;
}

let enabled = ref false
let recorded = ref []
let next_id = ref 0
let open_ids = ref []
let current_pass = ref 0

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* [timed name f] runs [f], returning its result and wall seconds; with
   recording on it also keeps a span. *)
let timed name f =
  if not !enabled then begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      open_ids := List.tl !open_ids;
      recorded :=
        { id; name; pass = !current_pass; parent; start; stop } :: !recorded;
      stop -. start
    in
    match f () with
    | r -> (r, finish ())
    | exception e ->
        ignore (finish ());
        raise e
  end

(* [in_pass f] runs [f] under a fresh pass id. *)
let in_pass f =
  incr current_pass;
  f !current_pass

(* [self_by_layer pass] sums, per layer, each span's duration minus the
   part its child spans cover, over the spans of [pass]. *)
let self_by_layer pass =
  let spans = List.filter (fun s -> s.pass = pass) !recorded in
  let child_time = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0 in
      Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let children = Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0 in
      let l = layer s.name in
      let prev = Option.value (Hashtbl.find_opt self l) ~default:0.0 in
      Hashtbl.replace self l (prev +. (s.stop -. s.start -. children)))
    spans;
  self

(* [total pass name] sums the durations of [pass]'s spans named [name]. *)
let total pass name =
  List.fold_left
    (fun acc s -> if s.pass = pass && s.name = name then acc +. (s.stop -. s.start) else acc)
    0.0 !recorded

(* One JSON object per line, oldest first. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"pass\":%d,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.name s.pass s.parent s.start s.stop)
    (List.rev !recorded);
  close_out oc
