// Random finite-volume boxes shared by the integration property suite
// and the multigrid unit tests, which `include!` this file; each
// includer brings `CooBuilder`, `CsrMatrix` and the proptest prelude into
// scope.

/// A random finite-volume-style SPD system on an `nx × ny × nz` box:
/// 7-point stencil with harmonic-mean-like positive face conductances and
/// a Dirichlet anchor below the first layer (mirrors the Cartesian heat
/// solver's structure, including conductivity jumps).
fn random_box_matrix(dims: (usize, usize, usize), k: &[f64]) -> CsrMatrix {
    let (nx, ny, nz) = dims;
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| x + y * nx + z * nx * ny;
    let mut coo = CooBuilder::new(n, n);
    let face = |a: f64, b: f64| 2.0 * a * b / (a + b);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                if x + 1 < nx {
                    let j = idx(x + 1, y, z);
                    let g = face(k[i], k[j]);
                    coo.add(i, i, g);
                    coo.add(j, j, g);
                    coo.add(i, j, -g);
                    coo.add(j, i, -g);
                }
                if y + 1 < ny {
                    let j = idx(x, y + 1, z);
                    let g = face(k[i], k[j]);
                    coo.add(i, i, g);
                    coo.add(j, j, g);
                    coo.add(i, j, -g);
                    coo.add(j, i, -g);
                }
                if z + 1 < nz {
                    let j = idx(x, y, z + 1);
                    let g = face(k[i], k[j]);
                    coo.add(i, i, g);
                    coo.add(j, j, g);
                    coo.add(i, j, -g);
                    coo.add(j, i, -g);
                }
                if z == 0 {
                    coo.add(i, i, 2.0 * k[i]); // sink anchor
                }
            }
        }
    }
    coo.to_csr()
}

/// Strategy: box dimensions plus per-cell conductivities spanning a
/// 100 : 1 jump range (the solvers must agree across material contrast).
fn box_system() -> impl Strategy<Value = ((usize, usize, usize), Vec<f64>, Vec<f64>)> {
    (2usize..5, 2usize..5, 2usize..6).prop_flat_map(|(nx, ny, nz)| {
        let n = nx * ny * nz;
        (
            Just((nx, ny, nz)),
            prop::collection::vec(0.1..10.0f64, n),
            prop::collection::vec(-5.0..5.0f64, n),
        )
    })
}
