(* Mask of transformations achieving the unrestricted optimum for [word]:
   the union, over all minimum-transition feasible codes, of their
   consistent-transformation masks. *)
let requirement ~k word =
  Telemetry.Metrics.incr Telemetry.Registry.subset_requirements;
  let best = (Solver.solve ~k word).code_transitions in
  let union = ref 0 in
  for code = 0 to (1 lsl k) - 1 do
    if Blockword.transitions ~k code = best then
      union := !union lor Blockword.tau_mask_standalone ~k ~word ~code
  done;
  !union

let requirements ~kmax =
  if kmax < 2 then invalid_arg "Subset.requirements: kmax < 2";
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  for k = 2 to kmax do
    for word = 0 to (1 lsl k) - 1 do
      let m = requirement ~k word in
      if not (Hashtbl.mem seen m) then begin
        Hashtbl.add seen m ();
        out := m :: !out
      end
    done
  done;
  List.rev !out

let hits subset sets = List.for_all (fun s -> subset land s <> 0) sets

let all_minimal ~kmax =
  let sets = requirements ~kmax in
  let best_size = ref 17 and found = ref [] in
  for subset = 1 to 0xffff do
    Telemetry.Metrics.incr Telemetry.Registry.subset_masks_tested;
    let size = Bitutil.Popcount.count32 subset in
    if size <= !best_size && hits subset sets then
      if size < !best_size then begin
        best_size := size;
        found := [ subset ]
      end
      else found := subset :: !found
  done;
  List.rev !found

let canonical_cache = ref None

let canonical_mask () =
  match !canonical_cache with
  | Some m -> m
  | None ->
      let candidates = all_minimal ~kmax:7 in
      let closed_under_dual m =
        List.for_all
          (fun f -> Boolfun.mask_mem (Boolfun.dual f) m)
          (Boolfun.list_of_mask m)
      in
      let score m =
        ( (if Boolfun.mask_mem Boolfun.identity m then 0 else 1),
          (if closed_under_dual m then 0 else 1),
          m )
      in
      let best =
        match candidates with
        | [] -> assert false (* the full mask always hits *)
        | first :: rest ->
            List.fold_left
              (fun acc m -> if score m < score acc then m else acc)
              first rest
      in
      canonical_cache := Some best;
      best

let canonical () = Boolfun.list_of_mask (canonical_mask ())

let paper_eight =
  Boolfun.
    [identity; inversion; history; not_history; xor; xnor; nor; nand]

let paper_eight_mask = Boolfun.mask_of_list paper_eight

let achieves_per_word_optimal ~subset_mask ~k =
  let all = Solver.table ~k () in
  let restricted = Solver.table ~subset_mask ~k () in
  Array.for_all2
    (fun (a : Solver.entry) (b : Solver.entry) ->
      a.code_transitions = b.code_transitions)
    all restricted
