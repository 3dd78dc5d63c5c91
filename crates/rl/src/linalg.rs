//! Minimal dense linear algebra for the DQN (no external ML dependencies,
//! matching the paper's weight-only hardware deployment story).

use adaptnoc_sim::json::Value;
use adaptnoc_sim::rng::Rng;

/// A row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialized matrix.
    pub fn xavier(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        Matrix {
            rows,
            cols,
            data: (0..rows * cols)
                .map(|_| rng.random_f64_range(-bound, bound))
                .collect(),
        }
    }

    /// Serializes to a JSON object (`rows`, `cols`, row-major `data`).
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("rows".into(), Value::Number(self.rows as f64)),
            ("cols".into(), Value::Number(self.cols as f64)),
            (
                "data".into(),
                Value::Array(self.data.iter().map(|&x| Value::Number(x)).collect()),
            ),
        ])
    }

    /// Restores a matrix from [`to_json`](Self::to_json) output.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let rows = v
            .get("rows")
            .and_then(Value::as_u64)
            .ok_or("matrix missing 'rows'")? as usize;
        let cols = v
            .get("cols")
            .and_then(Value::as_u64)
            .ok_or("matrix missing 'cols'")? as usize;
        let data: Vec<f64> = v
            .get("data")
            .and_then(Value::as_array)
            .ok_or("matrix missing 'data'")?
            .iter()
            .map(|x| x.as_f64().ok_or("matrix data not numeric".to_string()))
            .collect::<Result<_, _>>()?;
        if data.len() != rows * cols {
            return Err(format!(
                "matrix data length {} != {rows}x{cols}",
                data.len()
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        &mut self.data[r * self.cols + c]
    }

    /// `y = W x` (x of length `cols`, result of length `rows`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[allow(clippy::needless_range_loop)]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            y[r] = row.iter().zip(x).map(|(w, v)| w * v).sum();
        }
        y
    }

    /// `y = W^T x` (x of length `rows`, result of length `cols`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    #[allow(clippy::needless_range_loop)]
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (c, w) in row.iter().enumerate() {
                y[c] += w * x[r];
            }
        }
        y
    }

    /// `W += scale * (a ⊗ b)` (rank-1 update; a of length `rows`, b of
    /// length `cols`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[allow(clippy::needless_range_loop)]
    pub fn add_outer(&mut self, a: &[f64], b: &[f64], scale: f64) {
        assert_eq!(a.len(), self.rows, "outer rows mismatch");
        assert_eq!(b.len(), self.cols, "outer cols mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (c, w) in row.iter_mut().enumerate() {
                *w += scale * a[r] * b[c];
            }
        }
    }

    /// Elementwise `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f64) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// Rectified linear unit applied elementwise.
pub fn relu(x: &[f64]) -> Vec<f64> {
    x.iter().map(|&v| v.max(0.0)).collect()
}

/// Derivative mask of ReLU at the pre-activation values.
pub fn relu_grad(pre: &[f64]) -> Vec<f64> {
    pre.iter()
        .map(|&v| if v > 0.0 { 1.0 } else { 0.0 })
        .collect()
}

/// Index of the maximum element (first on ties).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn argmax(x: &[f64]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in x.iter().enumerate() {
        if v > x[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_known_values() {
        let mut m = Matrix::zeros(2, 3);
        // [[1,2,3],[4,5,6]]
        for (i, v) in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0].iter().enumerate() {
            m.data[i] = *v;
        }
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn outer_update() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0], 0.5);
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = Rng::seed_from_u64(1);
        let m = Matrix::xavier(10, 20, &mut rng);
        let bound = (6.0 / 30.0f64).sqrt();
        for r in 0..10 {
            for c in 0..20 {
                assert!(m.get(r, c).abs() <= bound);
            }
        }
        assert!(m.norm() > 0.0);
    }

    #[test]
    fn relu_and_grad() {
        assert_eq!(relu(&[-1.0, 0.0, 2.0]), vec![0.0, 0.0, 2.0]);
        assert_eq!(relu_grad(&[-1.0, 0.0, 2.0]), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_shape_checked() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }
}
