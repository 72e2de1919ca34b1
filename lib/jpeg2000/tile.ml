type t = { index : int; x0 : int; y0 : int; planes : Image.plane array }

let tile_grid ~image_w ~image_h ~tile_w ~tile_h =
  if tile_w <= 0 || tile_h <= 0 then invalid_arg "Tile.tile_grid: tile size";
  ((image_w + tile_w - 1) / tile_w, (image_h + tile_h - 1) / tile_h)

let split image ~tile_w ~tile_h =
  let image_w = Image.width image and image_h = Image.height image in
  let cols, rows = tile_grid ~image_w ~image_h ~tile_w ~tile_h in
  let make_tile tx ty =
    let x0 = tx * tile_w and y0 = ty * tile_h in
    let w = Stdlib.min tile_w (image_w - x0) in
    let h = Stdlib.min tile_h (image_h - y0) in
    let planes =
      Array.map
        (fun plane ->
          let sub = Image.create_plane ~width:w ~height:h in
          for y = 0 to h - 1 do
            Image.blit_row ~src:plane ~src_x:x0 ~src_y:(y0 + y) ~dst:sub
              ~dst_x:0 ~dst_y:y ~len:w
          done;
          sub)
        image.Image.planes
    in
    { index = (ty * cols) + tx; x0; y0; planes }
  in
  List.concat
    (List.init rows (fun ty -> List.init cols (fun tx -> make_tile tx ty)))

let width t = t.planes.(0).Image.width
let height t = t.planes.(0).Image.height
let components t = Array.length t.planes
let samples t = width t * height t * components t

let assemble ~width:image_w ~height:image_h ~components ?bit_depth tiles =
  let image =
    Image.create ~width:image_w ~height:image_h ~components ?bit_depth ()
  in
  List.iter
    (fun tile ->
      if Array.length tile.planes <> components then
        invalid_arg "Tile.assemble: component mismatch";
      Array.iteri
        (fun c sub ->
          let plane = image.Image.planes.(c) in
          for y = 0 to sub.Image.height - 1 do
            Image.blit_row ~src:sub ~src_x:0 ~src_y:y ~dst:plane
              ~dst_x:tile.x0 ~dst_y:(tile.y0 + y) ~len:sub.Image.width
          done)
        tile.planes)
    tiles;
  image

let crop ~x ~y ~w ~h ~components ?bit_depth tiles =
  let region = Image.create ~width:w ~height:h ~components ?bit_depth () in
  List.iter
    (fun tile ->
      Array.iteri
        (fun c sub ->
          let x0 = Stdlib.max x tile.x0
          and x1 = Stdlib.min (x + w) (tile.x0 + sub.Image.width)
          and y0 = Stdlib.max y tile.y0
          and y1 = Stdlib.min (y + h) (tile.y0 + sub.Image.height) in
          if x0 < x1 then
            for gy = y0 to y1 - 1 do
              Image.blit_row ~src:sub ~src_x:(x0 - tile.x0)
                ~src_y:(gy - tile.y0) ~dst:region.Image.planes.(c)
                ~dst_x:(x0 - x) ~dst_y:(gy - y) ~len:(x1 - x0)
            done)
        tile.planes)
    tiles;
  region
