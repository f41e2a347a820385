//! A small convolutional network with the downstream image classifier's
//! architecture. The evaluation harness trains an MLP classifier instead.
//!
//! The paper's Table VII trains "one Convolutional network with 28 kernels
//! of size (3,3), MaxPooling (2,2) and two FC layers [128, 10]" on the
//! synthetic images. This module implements that architecture (scaled to the
//! synthetic image resolution) with explicit forward/backward passes:
//! [`Conv2d`] (valid padding, stride 1), [`MaxPool2d`] (2×2) and
//! [`SimpleCnn`] combining them with a two-layer fully-connected head.

use crate::linear::Linear;
use crate::loss::softmax_cross_entropy;
use crate::optimizer::Optimizer;
use p3gm_linalg::Matrix;
use p3gm_privacy::sampling;
use rand::Rng;

/// A 2-D convolution layer with stride 1 and valid (no) padding, operating
/// on single-channel square images.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Number of output channels (kernels).
    pub out_channels: usize,
    /// Kernel side length.
    pub kernel: usize,
    /// Kernel weights: one `kernel²`-wide row per output channel.
    pub weights: Matrix,
    /// Per-channel bias.
    pub bias: Vec<f64>,
}

impl Conv2d {
    /// Creates a convolution with He-initialized kernels.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, out_channels: usize, kernel: usize) -> Self {
        let fan_in = (kernel * kernel) as f64;
        let std = (2.0 / fan_in).sqrt();
        Conv2d {
            out_channels,
            kernel,
            weights: Matrix::from_vec(
                out_channels,
                kernel * kernel,
                sampling::normal_vec(rng, out_channels * kernel * kernel, std),
            )
            .expect("kernel buffer length matches shape"),
            bias: vec![0.0; out_channels],
        }
    }

    /// Output side length for an input of side `size`.
    pub fn out_size(&self, size: usize) -> usize {
        size + 1 - self.kernel
    }

    /// Forward pass: input is a `size x size` single-channel image
    /// (row-major); the output matrix holds one `out_size²`-wide feature map
    /// per channel row.
    pub fn forward(&self, input: &[f64], size: usize) -> Matrix {
        debug_assert_eq!(input.len(), size * size);
        let out = self.out_size(size);
        let mut maps = Matrix::zeros(self.out_channels, out * out);
        for c in 0..self.out_channels {
            let w = self.weights.row(c);
            let b = self.bias[c];
            let map = maps.row_mut(c);
            for oy in 0..out {
                for ox in 0..out {
                    let mut acc = b;
                    for ky in 0..self.kernel {
                        let row =
                            &input[(oy + ky) * size + ox..(oy + ky) * size + ox + self.kernel];
                        let wrow = &w[ky * self.kernel..(ky + 1) * self.kernel];
                        for (iv, wv) in row.iter().zip(wrow.iter()) {
                            acc += iv * wv;
                        }
                    }
                    map[oy * out + ox] = acc;
                }
            }
        }
        maps
    }

    /// Backward pass: accumulates kernel/bias gradients given the gradient
    /// of the loss with respect to the output maps (one map per row).
    /// `grad_weights` is the flat row-major `out_channels x kernel²` kernel
    /// gradient buffer (a sub-slice of the model's flat gradient).
    pub fn backward(
        &self,
        input: &[f64],
        size: usize,
        grad_maps: &Matrix,
        grad_weights: &mut [f64],
        grad_bias: &mut [f64],
    ) {
        let out = self.out_size(size);
        let k2 = self.kernel * self.kernel;
        for c in 0..self.out_channels {
            let gmap = grad_maps.row(c);
            let grad_w = &mut grad_weights[c * k2..(c + 1) * k2];
            for oy in 0..out {
                for ox in 0..out {
                    let g = gmap[oy * out + ox];
                    if g == 0.0 {
                        continue;
                    }
                    grad_bias[c] += g;
                    for ky in 0..self.kernel {
                        for kx in 0..self.kernel {
                            grad_w[ky * self.kernel + kx] += g * input[(oy + ky) * size + ox + kx];
                        }
                    }
                }
            }
        }
    }

    /// Serializes the layer into a framed `p3gm-store` buffer (kernel
    /// geometry, kernel matrix, biases; bit-exact round trip).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = p3gm_store::Encoder::new(p3gm_store::tags::CONV2D);
        enc.usize(self.out_channels).usize(self.kernel);
        enc.nested(&self.weights.to_bytes()).f64_slice(&self.bias);
        enc.finish()
    }

    /// Deserializes a layer from a buffer produced by [`Conv2d::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> p3gm_store::Result<Conv2d> {
        use p3gm_store::StoreError;
        let mut dec = p3gm_store::Decoder::new(bytes, p3gm_store::tags::CONV2D)?;
        let out_channels = dec.usize()?;
        let kernel = dec.usize()?;
        let weights = Matrix::from_bytes(dec.nested()?)?;
        let bias = dec.f64_vec()?;
        dec.finish()?;
        let k2 = kernel
            .checked_mul(kernel)
            .ok_or_else(|| StoreError::Invalid {
                msg: "kernel size overflows".to_string(),
            })?;
        if weights.shape() != (out_channels, k2) || bias.len() != out_channels {
            return Err(StoreError::Invalid {
                msg: format!(
                    "conv buffers inconsistent with {out_channels} channels of {kernel}x{kernel} kernels"
                ),
            });
        }
        if weights
            .as_slice()
            .iter()
            .chain(bias.iter())
            .any(|v| !v.is_finite())
        {
            return Err(StoreError::Invalid {
                msg: "conv layer contains non-finite parameters".to_string(),
            });
        }
        Ok(Conv2d {
            out_channels,
            kernel,
            weights,
            bias,
        })
    }
}

/// 2×2 max-pooling with stride 2 (drops a trailing odd row/column).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxPool2d;

impl MaxPool2d {
    /// Output side length for an input of side `size`.
    pub fn out_size(size: usize) -> usize {
        size / 2
    }

    /// Forward pass over one feature map, returning the pooled map and the
    /// argmax indices (into the input map) needed for backprop.
    pub fn forward(map: &[f64], size: usize) -> (Vec<f64>, Vec<usize>) {
        let out = Self::out_size(size);
        let mut pooled = vec![f64::NEG_INFINITY; out * out];
        let mut argmax = vec![0usize; out * out];
        for oy in 0..out {
            for ox in 0..out {
                for dy in 0..2 {
                    for dx in 0..2 {
                        let idx = (2 * oy + dy) * size + 2 * ox + dx;
                        if map[idx] > pooled[oy * out + ox] {
                            pooled[oy * out + ox] = map[idx];
                            argmax[oy * out + ox] = idx;
                        }
                    }
                }
            }
        }
        (pooled, argmax)
    }

    /// Backward pass: routes the pooled gradient back to the argmax
    /// positions of the input map.
    pub fn backward(grad_pooled: &[f64], argmax: &[usize], input_len: usize) -> Vec<f64> {
        let mut grad = vec![0.0; input_len];
        for (&g, &idx) in grad_pooled.iter().zip(argmax.iter()) {
            grad[idx] += g;
        }
        grad
    }
}

/// A small CNN classifier: Conv(3×3, `n_kernels`) → ReLU → MaxPool(2×2) →
/// FC(hidden) → ReLU → FC(classes).
#[derive(Debug, Clone)]
pub struct SimpleCnn {
    conv: Conv2d,
    fc1: Linear,
    fc2: Linear,
    image_size: usize,
    n_classes: usize,
}

impl SimpleCnn {
    /// Builds the classifier for `image_size × image_size` single-channel
    /// inputs.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        image_size: usize,
        n_kernels: usize,
        hidden: usize,
        n_classes: usize,
    ) -> Self {
        assert!(image_size >= 4, "image must be at least 4x4");
        let conv = Conv2d::new(rng, n_kernels, 3);
        let conv_out = conv.out_size(image_size);
        let pooled = MaxPool2d::out_size(conv_out);
        let flat = n_kernels * pooled * pooled;
        SimpleCnn {
            conv,
            fc1: Linear::new_he(rng, flat, hidden),
            fc2: Linear::new_xavier(rng, hidden, n_classes),
            image_size,
            n_classes,
        }
    }

    /// Number of output classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Forward pass returning class logits.
    pub fn forward(&self, image: &[f64]) -> Vec<f64> {
        let (logits, _) = self.forward_full(image);
        logits
    }

    /// Predicted class label.
    pub fn predict(&self, image: &[f64]) -> usize {
        let logits = self.forward(image);
        p3gm_linalg::vector::argmax(&logits).unwrap_or(0)
    }

    /// Class probabilities (softmax of the logits).
    pub fn predict_proba(&self, image: &[f64]) -> Vec<f64> {
        p3gm_linalg::vector::softmax(&self.forward(image))
    }

    #[allow(clippy::type_complexity)]
    fn forward_full(&self, image: &[f64]) -> (Vec<f64>, CnnCache) {
        debug_assert_eq!(image.len(), self.image_size * self.image_size);
        let conv_maps = self.conv.forward(image, self.image_size);
        let conv_size = self.conv.out_size(self.image_size);
        // ReLU then pool each map (one map per row of `conv_maps`).
        let mut pooled_flat = Vec::new();
        let mut argmaxes = Vec::with_capacity(conv_maps.rows());
        for map in conv_maps.row_iter() {
            let relu: Vec<f64> = map.iter().map(|&v| v.max(0.0)).collect();
            let (pooled, argmax) = MaxPool2d::forward(&relu, conv_size);
            pooled_flat.extend_from_slice(&pooled);
            argmaxes.push(argmax);
        }
        let z1 = self.fc1.forward(&pooled_flat);
        let h1: Vec<f64> = z1.iter().map(|&v| v.max(0.0)).collect();
        let logits = self.fc2.forward(&h1);
        (
            logits,
            CnnCache {
                conv_maps,
                argmaxes,
                pooled_flat,
                z1,
                h1,
            },
        )
    }

    /// Trains the classifier with plain mini-batch SGD/Adam on
    /// softmax cross-entropy. `images` is a batch matrix (one flattened
    /// image per row), `labels` the integer classes. Returns the average
    /// loss of the final epoch.
    pub fn train<R: Rng + ?Sized, O: Optimizer>(
        &mut self,
        rng: &mut R,
        images: &Matrix,
        labels: &[usize],
        optimizer: &mut O,
        epochs: usize,
        batch_size: usize,
    ) -> f64 {
        assert_eq!(images.rows(), labels.len());
        let n = images.rows();
        let mut last_epoch_loss = 0.0;
        for _ in 0..epochs {
            let order = crate::dpsgd::sample_batch_indices(rng, n, n);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(batch_size.max(1)) {
                let (loss, grads) = self.batch_gradient(chunk, images, labels);
                epoch_loss += loss * chunk.len() as f64;
                let mut params = self.params();
                optimizer.step(&mut params, &grads);
                self.set_params(&params);
            }
            last_epoch_loss = epoch_loss / n as f64;
        }
        last_epoch_loss
    }

    /// Average loss and gradient over a batch of example indices, with
    /// per-example backward passes distributed over row chunks and the
    /// partial gradients folded in chunk order (deterministic for every
    /// thread count).
    fn batch_gradient(
        &self,
        indices: &[usize],
        images: &Matrix,
        labels: &[usize],
    ) -> (f64, Vec<f64>) {
        // Chunks floored at 4 images: conv backward passes are heavy enough
        // to amortize dispatch at that granularity, and small batches avoid
        // allocating one P-length partial per example.
        let (total, mut grads) = p3gm_parallel::par_map_reduce(
            indices.len(),
            p3gm_parallel::default_chunk_len(indices.len()).max(4),
            |range| {
                let mut grads = vec![0.0; self.num_params()];
                let mut total = 0.0;
                for &i in &indices[range] {
                    total += self.example_backward(images.row(i), labels[i], &mut grads);
                }
                (total, grads)
            },
            |(loss_a, mut grads_a), (loss_b, grads_b)| {
                p3gm_linalg::vector::axpy(1.0, &grads_b, &mut grads_a);
                (loss_a + loss_b, grads_a)
            },
        )
        .unwrap_or_else(|| (0.0, vec![0.0; self.num_params()]));
        let scale = 1.0 / indices.len().max(1) as f64;
        for g in &mut grads {
            *g *= scale;
        }
        (total * scale, grads)
    }

    /// Backward pass for one example; accumulates into `grads` and returns
    /// the loss.
    fn example_backward(&self, image: &[f64], label: usize, grads: &mut [f64]) -> f64 {
        let (logits, cache) = self.forward_full(image);
        let (loss, grad_logits) = softmax_cross_entropy(&logits, label);

        // Split the flat gradient buffer into per-component slices.
        let conv_w_len = self.conv.out_channels * self.conv.kernel * self.conv.kernel;
        let conv_b_len = self.conv.out_channels;
        let fc1_len = self.fc1.num_params();
        let (conv_w_flat, rest) = grads.split_at_mut(conv_w_len);
        let (conv_b, rest) = rest.split_at_mut(conv_b_len);
        let (fc1_grad, fc2_grad) = rest.split_at_mut(fc1_len);

        // FC2 backward.
        let fc2_w_len = self.fc2.in_dim() * self.fc2.out_dim();
        let (fc2_w, fc2_b) = fc2_grad.split_at_mut(fc2_w_len);
        let grad_h1 = self.fc2.backward(&cache.h1, &grad_logits, fc2_w, fc2_b);

        // ReLU on fc1 output.
        let mut grad_z1 = grad_h1;
        for (g, &z) in grad_z1.iter_mut().zip(cache.z1.iter()) {
            if z <= 0.0 {
                *g = 0.0;
            }
        }

        // FC1 backward.
        let fc1_w_len = self.fc1.in_dim() * self.fc1.out_dim();
        let (fc1_w, fc1_b) = fc1_grad.split_at_mut(fc1_w_len);
        let grad_pooled_flat = self
            .fc1
            .backward(&cache.pooled_flat, &grad_z1, fc1_w, fc1_b);

        // Un-pool and un-ReLU back to the convolution output.
        let conv_size = self.conv.out_size(self.image_size);
        let pooled_size = MaxPool2d::out_size(conv_size);
        let per_map = pooled_size * pooled_size;
        let mut grad_maps = Matrix::zeros(self.conv.out_channels, conv_size * conv_size);
        for c in 0..self.conv.out_channels {
            let slice = &grad_pooled_flat[c * per_map..(c + 1) * per_map];
            let grad_map = MaxPool2d::backward(slice, &cache.argmaxes[c], conv_size * conv_size);
            let dst = grad_maps.row_mut(c);
            for ((d, g), &z) in dst
                .iter_mut()
                .zip(grad_map.iter())
                .zip(cache.conv_maps.row(c).iter())
            {
                *d = if z <= 0.0 { 0.0 } else { *g };
            }
        }

        // Conv backward (kernel gradients only; input gradient not needed).
        self.conv
            .backward(image, self.image_size, &grad_maps, conv_w_flat, conv_b);
        loss
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.conv.out_channels * self.conv.kernel * self.conv.kernel
            + self.conv.out_channels
            + self.fc1.num_params()
            + self.fc2.num_params()
    }

    /// Flat parameter vector (conv kernels, conv bias, fc1, fc2).
    pub fn params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_params());
        out.extend_from_slice(self.conv.weights.as_slice());
        out.extend_from_slice(&self.conv.bias);
        let mut buf = vec![0.0; self.fc1.num_params()];
        self.fc1.write_params(&mut buf);
        out.extend_from_slice(&buf);
        let mut buf = vec![0.0; self.fc2.num_params()];
        self.fc2.write_params(&mut buf);
        out.extend_from_slice(&buf);
        out
    }

    /// Overwrites parameters from a flat vector produced by
    /// [`SimpleCnn::params`].
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_params());
        let w_len = self.conv.out_channels * self.conv.kernel * self.conv.kernel;
        let mut offset = 0;
        self.conv
            .weights
            .as_mut_slice()
            .copy_from_slice(&params[offset..offset + w_len]);
        offset += w_len;
        self.conv
            .bias
            .copy_from_slice(&params[offset..offset + self.conv.out_channels]);
        offset += self.conv.out_channels;
        offset += self
            .fc1
            .read_params(&params[offset..offset + self.fc1.num_params()]);
        self.fc2
            .read_params(&params[offset..offset + self.fc2.num_params()]);
    }
}

#[derive(Debug, Clone)]
struct CnnCache {
    conv_maps: Matrix,
    argmaxes: Vec<Vec<usize>>,
    pooled_flat: Vec<f64>,
    z1: Vec<f64>,
    h1: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(21)
    }

    #[test]
    fn conv_byte_round_trip_is_bit_exact() {
        let conv = Conv2d::new(&mut rng(), 4, 3);
        let back = Conv2d::from_bytes(&conv.to_bytes()).unwrap();
        assert_eq!(back.out_channels, conv.out_channels);
        assert_eq!(back.kernel, conv.kernel);
        assert_eq!(back.weights.as_slice(), conv.weights.as_slice());
        assert_eq!(back.bias, conv.bias);
        let image: Vec<f64> = (0..36).map(|i| (i as f64 * 0.11).sin()).collect();
        assert_eq!(
            back.forward(&image, 6).as_slice(),
            conv.forward(&image, 6).as_slice()
        );
        // Malformed buffers fail with typed errors.
        let bytes = conv.to_bytes();
        assert!(Conv2d::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut corrupted = bytes.clone();
        corrupted[40] ^= 0x08;
        assert!(Conv2d::from_bytes(&corrupted).is_err());
    }

    #[test]
    fn conv_forward_known_kernel() {
        let mut conv = Conv2d::new(&mut rng(), 1, 2);
        // picks top-left of each window
        conv.weights = Matrix::from_rows(&[vec![1.0, 0.0, 0.0, 0.0]]).unwrap();
        conv.bias = vec![0.5];
        let input = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0];
        let maps = conv.forward(&input, 3);
        assert_eq!(maps.shape(), (1, 4));
        assert_eq!(maps.row(0), &[1.5, 2.5, 4.5, 5.5]);
        assert_eq!(conv.out_size(3), 2);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // indexed loops mirror the flat gradient layout
    fn conv_backward_matches_finite_differences() {
        let mut r = rng();
        let conv = Conv2d::new(&mut r, 2, 2);
        let input: Vec<f64> = (0..16).map(|i| (i as f64) / 16.0).collect();
        let size = 4;
        let out = conv.out_size(size);
        // Loss: sum of all output values.
        let loss_of = |c: &Conv2d| -> f64 { c.forward(&input, size).as_slice().iter().sum() };
        let grad_maps = Matrix::filled(2, out * out, 1.0);
        let mut gw = vec![0.0; 8];
        let mut gb = vec![0.0; 2];
        conv.backward(&input, size, &grad_maps, &mut gw, &mut gb);
        let h = 1e-6;
        for c in 0..2 {
            for k in 0..4 {
                let mut plus = conv.clone();
                plus.weights.set(c, k, plus.weights.get(c, k) + h);
                let mut minus = conv.clone();
                minus.weights.set(c, k, minus.weights.get(c, k) - h);
                let numeric = (loss_of(&plus) - loss_of(&minus)) / (2.0 * h);
                assert!((numeric - gw[c * 4 + k]).abs() < 1e-4, "kernel {c},{k}");
            }
            let mut plus = conv.clone();
            plus.bias[c] += h;
            let mut minus = conv.clone();
            minus.bias[c] -= h;
            let numeric = (loss_of(&plus) - loss_of(&minus)) / (2.0 * h);
            assert!((numeric - gb[c]).abs() < 1e-4, "bias {c}");
        }
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let map = vec![
            1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 6.0, 7.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
        ];
        let (pooled, argmax) = MaxPool2d::forward(&map, 4);
        assert_eq!(pooled.len(), 4);
        assert_eq!(pooled[0], 5.0);
        assert_eq!(pooled[1], 7.0);
        let grad = MaxPool2d::backward(&[1.0, 2.0, 3.0, 4.0], &argmax, 16);
        assert_eq!(grad.iter().filter(|&&g| g != 0.0).count(), 4);
        assert_eq!(grad[1], 1.0); // position of the 5.0
    }

    #[test]
    fn cnn_shapes() {
        let mut r = rng();
        let cnn = SimpleCnn::new(&mut r, 8, 4, 16, 3);
        assert_eq!(cnn.n_classes(), 3);
        let image = vec![0.5; 64];
        assert_eq!(cnn.forward(&image).len(), 3);
        let proba = cnn.predict_proba(&image);
        assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(cnn.predict(&image) < 3);
        // Param round-trip.
        let p = cnn.params();
        assert_eq!(p.len(), cnn.num_params());
        let mut other = SimpleCnn::new(&mut r, 8, 4, 16, 3);
        other.set_params(&p);
        let a = cnn.forward(&image);
        let b = other.forward(&image);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn cnn_learns_to_separate_simple_patterns() {
        let mut r = rng();
        // Two classes: bright top half vs bright bottom half, 8x8 images.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let mut img = vec![0.0; 64];
            let class = i % 2;
            let noise = (i as f64 * 0.37).sin() * 0.1;
            for y in 0..8 {
                for x in 0..8 {
                    let bright = if class == 0 { y < 4 } else { y >= 4 };
                    img[y * 8 + x] = if bright { 0.9 + noise } else { 0.1 - noise };
                }
            }
            rows.push(img);
            labels.push(class);
        }
        let images = Matrix::from_rows(&rows).unwrap();
        let mut cnn = SimpleCnn::new(&mut r, 8, 4, 16, 2);
        let mut opt = Adam::new(0.01);
        cnn.train(&mut r, &images, &labels, &mut opt, 12, 10);
        let correct = images
            .row_iter()
            .zip(labels.iter())
            .filter(|(img, &l)| cnn.predict(img) == l)
            .count();
        assert!(
            correct as f64 / images.rows() as f64 > 0.9,
            "accuracy {}/{}",
            correct,
            images.rows()
        );
    }
}
