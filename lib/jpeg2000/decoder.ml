type band_coeffs = {
  bc_band : Subband.band;
  bc_planes : int;
  bc_coeffs : int array;
}

type entropy_decoded = {
  ed_tile : Codestream.tile_segment;
  ed_comps : band_coeffs list array;
}

type wavelet_domain =
  | Ints of Image.plane array
  | Floats of Dwt97.matrix array

let parse = Codestream.parse

(* -- entropy decoding ------------------------------------------------

   A tile is flattened up front into an array of independent per-code-
   block jobs plus one coefficient slot per (component, band): every
   job touches only its own rectangle of its own slot, so the jobs can
   run on a [Par.Pool] in any schedule and the merged coefficients are
   identical to the sequential decode. The flattening also de-lists
   the hot path: segments, grids and blocks are walked as arrays, not
   by [List.map2]/[List.length] per tile.

   Two representations share that job structure. The {e boxed} form
   decodes every block into a fresh [int array] and merges by index;
   it survives only as the exported stage-by-stage API
   ([entropy_decode_tile] → [dequantise] → [inverse_wavelet] →
   [inverse_colour_and_shift]) that the OSSS system models refine over
   Software Tasks and Shared Objects. Every whole-tile entry point
   decodes through the {e flat} path: per-domain scratch state into
   one off-heap {!Plane} per component — no per-block allocation, so
   parallel decodes stop serialising on the minor collector. (The
   boxed whole-tile pipeline behind the former [?flat:false] flag was
   retired after one release as a cross-check; a golden-digest qcheck
   regression pins the flat output in its place.) *)

type block_job = {
  bj_slot : int; (* (component, band) slot index *)
  bj_x0 : int;
  bj_y0 : int;
  bj_w : int;
  bj_h : int;
  bj_planes : int;
  bj_passes : string list;
}

type band_slot = {
  sl_band : Subband.band;
  sl_coeffs : int array;
  mutable sl_planes : int;
}

(* Band geometry is recomputed from the tile dimensions so that a
   corrupted stream cannot make us write outside a plane. [fail] is
   called (and must raise) on any inconsistency between the segment
   structure and that geometry. *)
let tile_jobs ~fail ?max_passes header tile =
  let bands =
    Subband.decompose_array ~width:tile.Codestream.tile_w
      ~height:tile.Codestream.tile_h ~levels:header.Codestream.levels
  in
  let nbands = Array.length bands in
  let grids =
    Array.map
      (fun (band : Subband.band) ->
        Array.of_list
          (Codestream.block_grid ~code_block:header.Codestream.code_block
             ~w:band.Subband.w ~h:band.Subband.h))
      bands
  in
  let ncomps = Array.length tile.Codestream.comps in
  let slots =
    Array.init (ncomps * nbands) (fun si ->
        let band = bands.(si mod nbands) in
        {
          sl_band = band;
          sl_coeffs =
            Array.make (Stdlib.max 1 (band.Subband.w * band.Subband.h)) 0;
          sl_planes = 0;
        })
  in
  let jobs = ref [] in
  Array.iteri
    (fun ci segments ->
      let segs = Array.of_list segments in
      if Array.length segs <> nbands then fail "band count mismatch";
      Array.iteri
        (fun bi (seg : Codestream.band_segment) ->
          let band = bands.(bi) in
          if
            band.Subband.w <> seg.Codestream.seg_w
            || band.Subband.h <> seg.Codestream.seg_h
            || band.Subband.orientation <> seg.Codestream.seg_orientation
          then fail "band geometry mismatch";
          let grid = grids.(bi) in
          let blocks = Array.of_list seg.Codestream.seg_blocks in
          if Array.length grid <> Array.length blocks then
            fail "code-block count mismatch";
          let slot = (ci * nbands) + bi in
          Array.iteri
            (fun k (x0, y0, w, h) ->
              let blk = blocks.(k) in
              let passes =
                match max_passes with
                | None -> blk.Codestream.blk_passes
                | Some n ->
                  List.filteri (fun i _ -> i < n) blk.Codestream.blk_passes
              in
              jobs :=
                {
                  bj_slot = slot;
                  bj_x0 = x0;
                  bj_y0 = y0;
                  bj_w = w;
                  bj_h = h;
                  bj_planes = blk.Codestream.blk_planes;
                  bj_passes = passes;
                }
                :: !jobs)
            grid)
        segs)
    tile.Codestream.comps;
  (nbands, slots, Array.of_list (List.rev !jobs))

(* Decodes through this domain's T1 scratch state and copies the
   block out: the only per-block allocation is the result. *)
let decode_job slots j =
  Array.sub
    (T1.decode_block_scalable_scratch
       ~orientation:slots.(j.bj_slot).sl_band.Subband.orientation ~w:j.bj_w
       ~h:j.bj_h ~planes:j.bj_planes j.bj_passes)
    0 (j.bj_w * j.bj_h)

let place_block slots j block =
  let slot = slots.(j.bj_slot) in
  let bw = slot.sl_band.Subband.w in
  slot.sl_planes <- Stdlib.max slot.sl_planes j.bj_planes;
  for r = 0 to j.bj_h - 1 do
    Array.blit block (r * j.bj_w) slot.sl_coeffs
      (((j.bj_y0 + r) * bw) + j.bj_x0)
      j.bj_w
  done

let comps_of_slots ~ncomps ~nbands slots =
  Array.init ncomps (fun ci ->
      List.init nbands (fun bi ->
          let s = slots.((ci * nbands) + bi) in
          { bc_band = s.sl_band; bc_planes = s.sl_planes; bc_coeffs = s.sl_coeffs }))

let entropy_decode_tile ?max_passes ?(pool = Par.Pool.sequential) header tile =
  let fail msg = failwith ("Decoder: " ^ msg) in
  let nbands, slots, jobs = tile_jobs ~fail ?max_passes header tile in
  let blocks = Par.Pool.map pool jobs (decode_job slots) in
  Array.iteri (fun i j -> place_block slots j blocks.(i)) jobs;
  {
    ed_tile = tile;
    ed_comps =
      comps_of_slots ~ncomps:(Array.length tile.Codestream.comps) ~nbands slots;
  }

(* Copies a band's row-major coefficients into its rectangle of a
   [stride]-wide destination, one row at a time. *)
let place_band ~stride dst (band : Subband.band) values =
  for r = 0 to band.Subband.h - 1 do
    Array.blit values (r * band.Subband.w) dst
      (((band.Subband.y0 + r) * stride) + band.Subband.x0)
      band.Subband.w
  done

let place_int_band plane bc =
  place_band ~stride:plane.Image.width plane.Image.data bc.bc_band bc.bc_coeffs

let place_float_band m ~step bc =
  place_band ~stride:m.Dwt97.mw m.Dwt97.values bc.bc_band
    (Quant.dequantise ~step bc.bc_coeffs)

let dequantise header decoded =
  let w = decoded.ed_tile.Codestream.tile_w in
  let h = decoded.ed_tile.Codestream.tile_h in
  match header.Codestream.mode with
  | Codestream.Lossless ->
    Ints
      (Array.map
         (fun bands ->
           let plane = Image.create_plane ~width:w ~height:h in
           List.iter
             (fun bc ->
               if bc.bc_band.Subband.w > 0 && bc.bc_band.Subband.h > 0 then
                 place_int_band plane bc)
             bands;
           plane)
         decoded.ed_comps)
  | Codestream.Lossy ->
    Floats
      (Array.map
         (fun bands ->
           let m = Dwt97.matrix_create ~w ~h in
           List.iter
             (fun bc ->
               if bc.bc_band.Subband.w > 0 && bc.bc_band.Subband.h > 0 then begin
                 let step =
                   Quant.step_for ~base_step:header.Codestream.base_step
                     ~levels:header.Codestream.levels
                     ~level:bc.bc_band.Subband.level
                     bc.bc_band.Subband.orientation
                 in
                 place_float_band m ~step bc
               end)
             bands;
           m)
         decoded.ed_comps)

let inverse_wavelet ?(pool = Par.Pool.sequential) header domain =
  let levels = header.Codestream.levels in
  (match domain with
  | Ints planes ->
    Par.Pool.iter pool planes (fun p -> Dwt53.inverse_plane p ~levels)
  | Floats ms -> Par.Pool.iter pool ms (fun m -> Dwt97.inverse_ip m ~levels));
  domain

(* Both branches work in place on the domain's own planes; the lossy
   one allocates only the int samples the tile keeps. *)
let inverse_colour_and_shift header tile domain =
  let bit_depth = header.Codestream.bit_depth in
  let int_planes =
    match domain with
    | Ints planes ->
      let arrays = Array.map (fun p -> p.Image.data) planes in
      if Array.length arrays = 3 then
        Colour.rct_inverse arrays.(0) arrays.(1) arrays.(2);
      Array.iter (Colour.dc_shift_inverse ~bit_depth) arrays;
      arrays
    | Floats ms ->
      let arrays = Array.map (fun m -> m.Dwt97.values) ms in
      if Array.length arrays = 3 then
        Colour.ict_inverse arrays.(0) arrays.(1) arrays.(2);
      Array.map (Colour.round_shift_inverse ~bit_depth) arrays
  in
  let w = tile.Codestream.tile_w and h = tile.Codestream.tile_h in
  {
    Tile.index = tile.Codestream.tile_index;
    x0 = tile.Codestream.tile_x0;
    y0 = tile.Codestream.tile_y0;
    planes =
      Array.map (fun data -> { Image.width = w; height = h; data }) int_planes;
  }

(* -- reduced-resolution view ----------------------------------------

   Keep only the bands with level > discard (they occupy the top-left
   low-resolution corner of the Mallat layout), then invert the
   remaining levels. *)
let reduced_size n d =
  let rec shrink n k = if k = 0 then n else shrink (Subband.low_size n) (k - 1) in
  shrink n d

(* The reduced view of a tile: the header and segment a decode at
   [discard] levels of resolution loss actually runs on. Identity for
   [discard = 0]. *)
let reduced_view header ~discard tile =
  if discard = 0 then (header, tile)
  else begin
    let bands =
      Subband.decompose ~width:tile.Codestream.tile_w
        ~height:tile.Codestream.tile_h ~levels:header.Codestream.levels
    in
    let keep (band : Subband.band) = band.Subband.level > discard in
    let reduced_header =
      {
        header with
        Codestream.levels = header.Codestream.levels - discard;
        tile_w = reduced_size tile.Codestream.tile_w discard;
        tile_h = reduced_size tile.Codestream.tile_h discard;
        (* Band levels shift down by [discard]; shifting the base step
           the same way keeps every kept band's quantiser step equal to
           the one the encoder used. *)
        base_step =
          header.Codestream.base_step /. Float.pow 2.0 (float_of_int discard);
      }
    in
    (* The kept bands' levels shift down by [discard] so the geometry
       matches the reduced tile. *)
    let relevel seg =
      { seg with Codestream.seg_level = seg.Codestream.seg_level - discard }
    in
    let reduced_tile =
      {
        tile with
        Codestream.tile_x0 = tile.Codestream.tile_x0 asr discard;
        tile_y0 = tile.Codestream.tile_y0 asr discard;
        tile_w = reduced_header.Codestream.tile_w;
        tile_h = reduced_header.Codestream.tile_h;
        comps =
          Array.map
            (fun segments ->
              List.filteri (fun i _ -> keep (List.nth bands i)) segments
              |> List.map relevel)
            tile.Codestream.comps;
      }
    in
    (reduced_header, reduced_tile)
  end

(* Each skipped inverse level would have multiplied the lows by K
   (per dimension); compensate so brightness does not drift. *)
let compensate_k ~discard domain =
  match domain with
  | Ints _ -> () (* the 5/3 low-pass has unit DC gain *)
  | Floats ms ->
    if discard > 0 then begin
      let k2d = Float.pow 1.230174104914001 (2.0 *. float_of_int discard) in
      Array.iter
        (fun m ->
          let v = m.Dwt97.values in
          for i = 0 to Array.length v - 1 do
            v.(i) <- v.(i) *. k2d
          done)
        ms
    end

(* Blocks whose advertised plane count exceeds any plausible magnitude
   are refused up front on the robust paths (a corrupted count would
   otherwise cost 3 passes per bogus plane before failing). *)
let max_robust_planes = 30

(* -- flat decode path ------------------------------------------------

   The same job structure as [tile_jobs], decoded into one off-heap
   {!Plane} per component (Mallat layout, absolute band coordinates)
   through T1's per-domain scratch state. Worker domains write
   disjoint rectangles of the shared planes — race-free, and
   deterministic because where a block lands depends only on the job,
   never on the schedule. A block decode that raises blits nothing,
   so its rectangle simply stays zero: exactly the concealment the
   robust path wants. *)

type flat_job = {
  fj_comp : int;
  fj_x0 : int; (* absolute position in the component's Mallat plane *)
  fj_y0 : int;
  fj_w : int;
  fj_h : int;
  fj_planes : int;
  fj_orientation : Subband.orientation;
  fj_passes : string list;
}

type flat_tile = {
  ft_bands : Subband.band array;
  ft_planes : Plane.t array; (* one per component, tile_w x tile_h *)
  ft_jobs : flat_job array;
}

let flat_tile_jobs ~fail ?max_passes header tile =
  let bands =
    Subband.decompose_array ~width:tile.Codestream.tile_w
      ~height:tile.Codestream.tile_h ~levels:header.Codestream.levels
  in
  let nbands = Array.length bands in
  let grids =
    Array.map
      (fun (band : Subband.band) ->
        Array.of_list
          (Codestream.block_grid ~code_block:header.Codestream.code_block
             ~w:band.Subband.w ~h:band.Subband.h))
      bands
  in
  let planes =
    Array.map
      (fun _ ->
        Plane.create ~w:tile.Codestream.tile_w ~h:tile.Codestream.tile_h)
      tile.Codestream.comps
  in
  let jobs = ref [] in
  Array.iteri
    (fun ci segments ->
      let segs = Array.of_list segments in
      if Array.length segs <> nbands then fail "band count mismatch";
      Array.iteri
        (fun bi (seg : Codestream.band_segment) ->
          let band = bands.(bi) in
          if
            band.Subband.w <> seg.Codestream.seg_w
            || band.Subband.h <> seg.Codestream.seg_h
            || band.Subband.orientation <> seg.Codestream.seg_orientation
          then fail "band geometry mismatch";
          let grid = grids.(bi) in
          let blocks = Array.of_list seg.Codestream.seg_blocks in
          if Array.length grid <> Array.length blocks then
            fail "code-block count mismatch";
          Array.iteri
            (fun k (x0, y0, w, h) ->
              let blk = blocks.(k) in
              let passes =
                match max_passes with
                | None -> blk.Codestream.blk_passes
                | Some n ->
                  List.filteri (fun i _ -> i < n) blk.Codestream.blk_passes
              in
              jobs :=
                {
                  fj_comp = ci;
                  fj_x0 = band.Subband.x0 + x0;
                  fj_y0 = band.Subband.y0 + y0;
                  fj_w = w;
                  fj_h = h;
                  fj_planes = blk.Codestream.blk_planes;
                  fj_orientation = band.Subband.orientation;
                  fj_passes = passes;
                }
                :: !jobs)
            grid)
        segs)
    tile.Codestream.comps;
  {
    ft_bands = bands;
    ft_planes = planes;
    ft_jobs = Array.of_list (List.rev !jobs);
  }

(* One flat job: scratch-decode the block on this domain and blit it
   into its component plane. *)
let decode_flat_job ft j =
  let block =
    T1.decode_block_scalable_scratch ~orientation:j.fj_orientation ~w:j.fj_w
      ~h:j.fj_h ~planes:j.fj_planes j.fj_passes
  in
  Plane.blit_block ft.ft_planes.(j.fj_comp) ~x0:j.fj_x0 ~y0:j.fj_y0 ~w:j.fj_w
    ~h:j.fj_h block

(* Containment semantics of the robust path: [false] marks a block
   whose codeword no longer decodes; its rectangle stays zero. *)
let decode_flat_job_robust ft j =
  if j.fj_planes > max_robust_planes then false
  else
    match decode_flat_job ft j with
    | () -> true
    | exception (Failure _ | Invalid_argument _ | Exit | Not_found) -> false

let flat_entropy ?max_passes ~pool header tile =
  let fail msg = failwith ("Decoder: " ^ msg) in
  let ft = flat_tile_jobs ~fail ?max_passes header tile in
  Par.Pool.iter pool ft.ft_jobs (decode_flat_job ft);
  ft

(* The remaining stages over flat planes: IQ, K compensation, in-place
   IDWT, colour/DC-shift — step for step the boxed
   [dequantise] / [compensate_k] / [inverse_wavelet] /
   [inverse_colour_and_shift] chain, so the two paths agree bit for
   bit. *)
let finish_flat ?(pool = Par.Pool.sequential) ~discard header tile ft =
  let w = tile.Codestream.tile_w and h = tile.Codestream.tile_h in
  let levels = header.Codestream.levels in
  match header.Codestream.mode with
  | Codestream.Lossless ->
    Par.Pool.iter pool ft.ft_planes (fun p -> Dwt53.inverse_flat p ~levels);
    inverse_colour_and_shift header tile
      (Ints
         (Array.map
            (fun p -> { Image.width = w; height = h; data = Plane.to_array p })
            ft.ft_planes))
  | Codestream.Lossy ->
    let ms =
      Array.map
        (fun plane ->
          let m = Dwt97.matrix_create ~w ~h in
          Array.iter
            (fun (band : Subband.band) ->
              if band.Subband.w > 0 && band.Subband.h > 0 then begin
                let step =
                  Quant.step_for ~base_step:header.Codestream.base_step ~levels
                    ~level:band.Subband.level band.Subband.orientation
                in
                Quant.dequantise_rect ~step (Plane.data plane) m.Dwt97.values
                  ~stride:w ~x0:band.Subband.x0 ~y0:band.Subband.y0
                  ~w:band.Subband.w ~h:band.Subband.h
              end)
            ft.ft_bands;
          m)
        ft.ft_planes
    in
    compensate_k ~discard (Floats ms);
    Par.Pool.iter pool ms (fun m -> Dwt97.inverse_ip m ~levels);
    inverse_colour_and_shift header tile (Floats ms)

(* -- whole-tile / whole-image decode -------------------------------- *)

let decode_tile ?max_passes ?(pool = Par.Pool.sequential) header tile =
  finish_flat ~pool ~discard:0 header tile
    (flat_entropy ?max_passes ~pool header tile)

let decode_region ?(pool = Par.Pool.sequential) ~x ~y ~w ~h data =
  let stream = parse data in
  let header = stream.Codestream.header in
  if w <= 0 || h <= 0 then invalid_arg "Decoder.decode_region: empty window";
  if
    x < 0 || y < 0
    || x + w > header.Codestream.width
    || y + h > header.Codestream.height
  then invalid_arg "Decoder.decode_region: window outside the image";
  let needed =
    Array.of_list
      (List.filter
         (fun seg -> Codestream.in_window seg ~x ~y ~w ~h)
         stream.Codestream.tiles)
  in
  let decoded =
    Par.Pool.map pool needed (fun seg -> decode_tile ~pool header seg)
  in
  Tile.crop ~x ~y ~w ~h ~components:header.Codestream.components
    ~bit_depth:header.Codestream.bit_depth (Array.to_list decoded)

let decode_tile_reduced ?(pool = Par.Pool.sequential) header ~discard tile =
  let reduced_header, reduced_tile = reduced_view header ~discard tile in
  finish_flat ~pool ~discard reduced_header reduced_tile
    (flat_entropy ~pool reduced_header reduced_tile)

let decode_reduced ?(pool = Par.Pool.sequential) ~discard_levels data =
  let stream = parse data in
  let header = stream.Codestream.header in
  if discard_levels < 0 || discard_levels > header.Codestream.levels then
    invalid_arg "Decoder.decode_reduced: discard_levels";
  if
    header.Codestream.tile_w mod (1 lsl discard_levels) <> 0
    || header.Codestream.tile_h mod (1 lsl discard_levels) <> 0
  then invalid_arg "Decoder.decode_reduced: tile grid not aligned";
  let tiles =
    Array.to_list
      (Par.Pool.map pool
         (Array.of_list stream.Codestream.tiles)
         (decode_tile_reduced ~pool header ~discard:discard_levels))
  in
  Tile.assemble
    ~width:(reduced_size header.Codestream.width discard_levels)
    ~height:(reduced_size header.Codestream.height discard_levels)
    ~components:header.Codestream.components
    ~bit_depth:header.Codestream.bit_depth tiles

let decode_with ?max_passes ?(pool = Par.Pool.sequential) data =
  let stream = parse data in
  let header = stream.Codestream.header in
  let tiles =
    Array.to_list
      (Par.Pool.map pool
         (Array.of_list stream.Codestream.tiles)
         (decode_tile ?max_passes ~pool header))
  in
  Tile.assemble ~width:header.Codestream.width ~height:header.Codestream.height
    ~components:header.Codestream.components ~bit_depth:header.Codestream.bit_depth
    tiles

let decode ?pool data = decode_with ?pool data

let decode_progressive ?pool ~max_passes data =
  if max_passes < 0 then invalid_arg "Decoder.decode_progressive: max_passes";
  decode_with ~max_passes ?pool data

(* -- graceful degradation ------------------------------------------- *)

type report = {
  concealed_blocks : int;
  concealed_tiles : int;
  total_blocks : int;
  total_tiles : int;
}

let no_damage = function
  | { concealed_blocks = 0; concealed_tiles = 0; _ } -> true
  | _ -> false

let pp_report ppf r =
  Format.fprintf ppf "%d/%d blocks concealed, %d/%d tiles concealed"
    r.concealed_blocks r.total_blocks r.concealed_tiles r.total_tiles

(* Entropy decode in which each code block is a containment domain: a
   block whose MQ codeword no longer decodes is concealed (all-zero
   coefficients — mid-grey after the DC shift, the classic JPEG 2000
   error-resilience strategy) instead of poisoning the tile. Returns
   [None] when the tile's structure itself is inconsistent with the
   header geometry and the whole tile must be concealed. *)

let entropy_decode_tile_robust ?(pool = Par.Pool.sequential) header tile =
  match tile_jobs ~fail:(fun _ -> raise Exit) header tile with
  | exception Exit -> None
  | nbands, slots, jobs ->
    let results =
      Par.Pool.map pool jobs (fun j ->
          if j.bj_planes > max_robust_planes then None
          else
            try Some (decode_job slots j)
            with Failure _ | Invalid_argument _ | Exit | Not_found -> None)
    in
    let concealed = ref 0 in
    Array.iteri
      (fun i j ->
        match results.(i) with
        | Some block when Array.length block = j.bj_w * j.bj_h ->
          place_block slots j block
        | _ ->
          (* concealed: the block's coefficients stay zero *)
          incr concealed)
      jobs;
    Some
      ( {
          ed_tile = tile;
          ed_comps =
            comps_of_slots ~ncomps:(Array.length tile.Codestream.comps) ~nbands
              slots;
        },
        !concealed )

(* A fully concealed tile: every coefficient zero, same pipeline, so
   it renders as mid-grey at the right place and size. *)
let concealed_entropy_decoded header tile =
  let bands =
    Subband.decompose ~width:tile.Codestream.tile_w
      ~height:tile.Codestream.tile_h ~levels:header.Codestream.levels
  in
  let zero_comp () =
    List.map
      (fun (band : Subband.band) ->
        {
          bc_band = band;
          bc_planes = 0;
          bc_coeffs = Array.make (Stdlib.max 1 (band.Subband.w * band.Subband.h)) 0;
        })
      bands
  in
  {
    ed_tile = tile;
    ed_comps = Array.map (fun _ -> zero_comp ()) tile.Codestream.comps;
  }

let concealed_tile header tile =
  concealed_entropy_decoded header tile
  |> dequantise header |> inverse_wavelet header
  |> inverse_colour_and_shift header tile

let tile_block_count header tile =
  let bands =
    Subband.decompose ~width:tile.Codestream.tile_w
      ~height:tile.Codestream.tile_h ~levels:header.Codestream.levels
  in
  List.fold_left
    (fun acc (band : Subband.band) ->
      acc
      + List.length
          (Codestream.block_grid ~code_block:header.Codestream.code_block
             ~w:band.Subband.w ~h:band.Subband.h))
    0 bands
  * Array.length tile.Codestream.comps

(* A tile segment standing in for one that never arrived: right grid
   cell, right component count, no entropy payload — exactly what
   [concealed_tile] needs to render mid-grey at the right place. *)
let absent_tile header ~index ~x0 ~y0 =
  let { Codestream.tile_w; tile_h; width; height; components; _ } = header in
  {
    Codestream.tile_index = index;
    tile_x0 = x0;
    tile_y0 = y0;
    tile_w = Stdlib.min tile_w (width - x0);
    tile_h = Stdlib.min tile_h (height - y0);
    comps = Array.make components [];
  }

(* Grid cells of [header] not covered by any tile in [present], in
   raster order — the tiles a truncated stream never delivered. *)
let missing_tiles (header : Codestream.header) present =
  let covered =
    List.map
      (fun (t : Codestream.tile_segment) ->
        (t.Codestream.tile_x0, t.Codestream.tile_y0))
      present
  in
  let tw = header.Codestream.tile_w and th = header.Codestream.tile_h in
  let cols = (header.Codestream.width + tw - 1) / tw in
  let rows = (header.Codestream.height + th - 1) / th in
  List.concat
    (List.init rows (fun ty ->
         List.init cols (fun tx ->
             ((ty * cols) + tx, tx * tw, ty * th))))
  |> List.filter_map (fun (index, x0, y0) ->
         if List.mem (x0, y0) covered then None
         else Some (absent_tile header ~index ~x0 ~y0))

(* The robust body over an explicit tile population: [present] tiles
   decode with per-block containment, [missing] ones are concealed
   whole. *)
let decode_robust_tiles ~pool header ~present ~missing =
  let decode_one tile =
    (* (tile image, concealed blocks, concealed tiles, total blocks):
       per-tile results stay pure so the fan-out over tiles cannot
       race on the report counters. *)
    let total = tile_block_count header tile in
    match flat_tile_jobs ~fail:(fun _ -> raise Exit) header tile with
    | exception Exit -> (concealed_tile header tile, 0, 1, total)
    | ft -> (
      let oks = Par.Pool.map pool ft.ft_jobs (decode_flat_job_robust ft) in
      let concealed =
        Array.fold_left (fun acc ok -> if ok then acc else acc + 1) 0 oks
      in
      match finish_flat ~discard:0 header tile ft with
      | t -> (t, concealed, 0, total)
      | exception (Failure _ | Invalid_argument _) ->
        (concealed_tile header tile, concealed, 1, total))
  in
  let results = Par.Pool.map pool (Array.of_list present) decode_one in
  let concealed_blocks = ref 0 and concealed_tiles = ref 0 in
  let total_blocks = ref 0 in
  let tiles =
    Array.to_list
      (Array.map
         (fun (tile, blocks, tiles, total) ->
           concealed_blocks := !concealed_blocks + blocks;
           concealed_tiles := !concealed_tiles + tiles;
           total_blocks := !total_blocks + total;
           tile)
         results)
  in
  let tiles =
    tiles
    @ List.map
        (fun tile ->
          concealed_tiles := !concealed_tiles + 1;
          total_blocks := !total_blocks + tile_block_count header tile;
          concealed_tile header tile)
        missing
  in
  let image =
    Tile.assemble ~width:header.Codestream.width
      ~height:header.Codestream.height
      ~components:header.Codestream.components
      ~bit_depth:header.Codestream.bit_depth tiles
  in
  Ok
    ( image,
      {
        concealed_blocks = !concealed_blocks;
        concealed_tiles = !concealed_tiles;
        total_blocks = !total_blocks;
        total_tiles = List.length present + List.length missing;
      } )

let decode_robust ?(pool = Par.Pool.sequential) data =
  (* One machine pass: its parse equals [Codestream.parse_result], and
     on truncation it still holds the units the prefix completed. *)
  let s = Stream.create () in
  (match Stream.feed s data with
  | Stream.Need_more | Stream.Segment_ready | Stream.Done | Stream.Corrupt _ ->
    ());
  match Stream.parse_result s with
  | Ok stream ->
    decode_robust_tiles ~pool stream.Codestream.header
      ~present:stream.Codestream.tiles ~missing:[]
  | Error (Codestream.Truncated _ as e) -> (
    (* A truncated stream is the signature of a stalled or lossy
       ingest path: salvage every tile segment the prefix completed
       and conceal the grid cells that never arrived. Only a prefix
       too short to deliver the preamble remains an error. *)
    match Stream.header s with
    | None -> Error e
    | Some header ->
      let present = List.init (Stream.tiles_ready s) (Stream.tile s) in
      decode_robust_tiles ~pool header ~present
        ~missing:(missing_tiles header present))
  | Error e -> Error e

let psnr_impact ~reference (image, report) =
  if no_damage report then Float.infinity else Image.psnr reference image

(* -- staged tile decode (serving support) --------------------------- *)

(* A tile split into its independent entropy-decode jobs but not yet
   decoded: the serving layer's batch scheduler collects the jobs of
   many tiles across many requests into one array and runs them on a
   single [Par.Pool] batch, and finishes each tile from its slice of
   the results. The staged pipeline performs exactly the steps of
   [decode_tile] / [decode_tile_reduced], so a finished tile is
   bit-identical to the monolithic per-tile decode.

   The coefficients live in the flat planes of [flat_tile]:
   [staged_run] decodes job [i] directly into the staged tile's planes
   (in place, no allocation — disjoint rectangles keep concurrent jobs
   of any staged tiles race-free) and [finish_staged_ok] only counts
   the concealments. *)

type staged = {
  st_header : Codestream.header;  (* effective (reduced) header *)
  st_tile : Codestream.tile_segment;  (* effective (reduced) segment *)
  st_discard : int;
  st_flat : flat_tile;
}

let stage_tile ?max_passes ?(discard = 0) header tile =
  if discard < 0 || discard > header.Codestream.levels then
    invalid_arg "Decoder.stage_tile: discard";
  let st_header, st_tile = reduced_view header ~discard tile in
  let fail msg = failwith ("Decoder: " ^ msg) in
  let st_flat = flat_tile_jobs ~fail ?max_passes st_header st_tile in
  { st_header; st_tile; st_discard = discard; st_flat }

let staged_jobs st = Array.length st.st_flat.ft_jobs

let staged_coded_bytes st = Codestream.segment_bytes st.st_tile

let staged_samples st =
  st.st_tile.Codestream.tile_w * st.st_tile.Codestream.tile_h
  * Array.length st.st_tile.Codestream.comps

(* Job count and coded bytes per code-block class (band orientation) —
   the profiler's T1 attribution. Pure function of the staged segment
   structure, so it agrees across reruns and pool schedules. *)
let staged_block_classes st =
  let blocks = Array.make 4 0 and bytes = Array.make 4 0 in
  Array.iter
    (fun j ->
      let i = Subband.orientation_code j.fj_orientation in
      blocks.(i) <- blocks.(i) + 1;
      bytes.(i) <-
        bytes.(i)
        + List.fold_left (fun acc p -> acc + String.length p) 0 j.fj_passes)
    st.st_flat.ft_jobs;
  List.filter_map
    (fun i ->
      if blocks.(i) = 0 then None
      else
        let name =
          match Subband.orientation_of_code i with
          | Subband.LL -> "LL"
          | Subband.HL -> "HL"
          | Subband.LH -> "LH"
          | Subband.HH -> "HH"
        in
        Some (name, blocks.(i), bytes.(i)))
    [ 0; 1; 2; 3 ]

let staged_run st i = decode_flat_job_robust st.st_flat st.st_flat.ft_jobs.(i)

let finish_staged_ok st ok =
  if Array.length ok <> Array.length st.st_flat.ft_jobs then
    invalid_arg "Decoder.finish_staged_ok: result count mismatch";
  let concealed =
    Array.fold_left (fun acc o -> if o then acc else acc + 1) 0 ok
  in
  ( finish_flat ~discard:st.st_discard st.st_header st.st_tile st.st_flat,
    concealed )
