module graphalytics/benchmark

go 1.24

require graphalytics v0.0.0

replace graphalytics => ../
