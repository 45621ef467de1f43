type edge = { src : int; dst : int; count : int }

(* One straight-line run of sequential fetches [start .. exit], left by a
   transfer to [target] (-1 where the program ended) and entered with the
   bus-invert history [entry].  The run's bus-invert transitions [cost] and
   the history it leaves behind are functions of that key, so they are
   computed once, when the segment is first seen; [exit] is the index of
   the bucket that holds the segment. *)
type segment = {
  start : int;
  target : int;
  entry : int;
  cost : int;
  leave : int;
  mutable seen : int;
}

type t = {
  counts : int array;
  total : int;
  segments : segment list array;  (* by exit pc *)
  last : int;  (* the last pc fetched *)
  businvert : int;
  output : string;
  exit_code : int;
}

let rec find_segment start target entry = function
  | [] -> raise_notrace Not_found
  | s :: rest ->
      if s.start = start && s.target = target && s.entry = entry then s
      else find_segment start target entry rest

(* The taken edges come from the segments; a pc's other fetches fall
   through to pc + 1, except the program's last fetch.  Built on demand:
   [prepare] never asks for them. *)
let edges { counts; segments; last; _ } =
  let edges = ref [] in
  for src = Array.length counts - 1 downto 0 do
    let taken =
      List.fold_left
        (fun acc s ->
          if s.target < 0 then acc
          else
            match List.assoc_opt s.target acc with
            | Some n -> (s.target, n + s.seen) :: List.remove_assoc s.target acc
            | None -> (s.target, s.seen) :: acc)
        [] segments.(src)
    in
    let through =
      List.fold_left (fun n (_, c) -> n - c)
        (counts.(src) - Bool.to_int (src = last))
        taken
    in
    let out = if through > 0 then (src + 1, through) :: taken else taken in
    (* prepending in descending [dst] order leaves the list ascending *)
    List.iter
      (fun (dst, count) -> edges := { src; dst; count } :: !edges)
      (List.sort (fun (a, _) (b, _) -> Int.compare b a) out)
  done;
  Array.of_list !edges

let collect ?max_instructions program =
  let words = Isa.Program.words program in
  let n = Array.length words in
  let counts = Array.make n 0 in
  let segments = Array.make n [] in
  let bi = Buspower.Businvert.create () in
  let history = ref (Buspower.Businvert.history bi) in
  let start = ref 0 and prev = ref (-2) in
  let close ~exit ~target =
    let entry = !history in
    let s =
      match find_segment !start target entry segments.(exit) with
      | s -> s
      | exception Not_found ->
          Buspower.Businvert.resume bi entry;
          for pc = !start to exit do
            ignore (Buspower.Businvert.encode bi words.(pc))
          done;
          let s =
            {
              start = !start;
              target;
              entry;
              cost = Buspower.Businvert.transitions bi;
              leave = Buspower.Businvert.history bi;
              seen = 0;
            }
          in
          segments.(exit) <- s :: segments.(exit);
          s
    in
    s.seen <- s.seen + 1;
    history := s.leave
  in
  (* [Machine.Cpu.run] range-checks the pc before the hook sees it *)
  let on_fetch ~pc =
    Array.unsafe_set counts pc (Array.unsafe_get counts pc + 1);
    if pc <> !prev + 1 then begin
      if !prev >= 0 then close ~exit:!prev ~target:pc;
      start := pc
    end;
    prev := pc
  in
  let state = Machine.Cpu.create_state () in
  let result = Machine.Cpu.run ?max_instructions ~on_fetch program state in
  if !prev >= 0 then close ~exit:!prev ~target:(-1);
  let businvert =
    Array.fold_left
      (List.fold_left (fun acc s -> acc + (s.seen * s.cost)))
      0 segments
  in
  ( {
      counts;
      total = result.Machine.Cpu.instructions;
      segments;
      last = !prev;
      businvert;
      output = Machine.Cpu.output state;
      exit_code = result.Machine.Cpu.exit_code;
    },
    result )

let instruction_count t i = t.counts.(i)
let block_weight t (b : Block.t) = t.counts.(b.start)

let block_fetches t (b : Block.t) =
  let sum = ref 0 in
  for i = b.start to b.start + b.len - 1 do
    sum := !sum + t.counts.(i)
  done;
  !sum

let total t = t.total
let businvert_transitions t = t.businvert
let output t = t.output
let exit_code t = t.exit_code

let hot_blocks t blocks =
  Array.to_list blocks
  |> List.filter (fun b -> block_fetches t b > 0)
  |> List.stable_sort (fun a b -> Int.compare (block_fetches t b) (block_fetches t a))

let coverage t subset =
  if t.total = 0 then 0.0
  else
    let inside =
      List.fold_left (fun acc b -> acc + block_fetches t b) 0 subset
    in
    float_of_int inside /. float_of_int t.total
